//! `mcbench` — the repository's benchmark.
//!
//! ```text
//! mcbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! mcbench run    [--seed N] [--seconds S]                 every workload, untraced then traced
//! mcbench trace  [--seed N] [--seconds S] [--workload W]  traced runs only
//! mcbench repeat [--sets K] [--seed N] [--seconds S]      K full sets, compared against the bounds
//! ```
//!
//! Every workload runs in a child process of its own, under a watchdog
//! and an address-space cap, so a pathological run reports a failure
//! instead of wedging or eating the host.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mcbench::decl::{Decl, MetricDecl};
use mcbench::result::{parse_result_line, result_line, to_result, RunResult};
use mcbench::workloads::{self, Env};
use mcbench::{layers, live};

/// A child that has not finished by now is killed. The contract gives a
/// run 180 s; the result line must still be printed inside that.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Address-space cap of a child (`RLIMIT_AS`). An unwindowed reliable
/// stream was seen to reach 4 GB before timing out; the largest honest
/// workload (`sim_check`) peaks near 0.33 GB resident.
const ADDRESS_SPACE_CAP: u64 = 3 << 30;

/// One run's request.
#[derive(Clone, Debug)]
struct Request {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("mcbench: {usage}");
            ExitCode::from(2)
        }
    }
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let (sub, flags) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &args[1..]),
        _ => ("one", args),
    };
    let flags = parse_flags(flags)?;
    let decl = Decl::load();
    let get = |key: &str| flags.get(key).map(String::as_str);
    let num = |key: &str, default: f64| -> Result<f64, String> {
        get(key)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{key} {v}: not a number")))
    };
    let seed = num("seed", 1.0)? as u64;
    let seconds = num("seconds", decl.run_seconds)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    let workload = |required: bool| -> Result<Option<String>, String> {
        match get("workload") {
            Some(w) if decl.workloads.iter().any(|d| d == w) => Ok(Some(w.to_string())),
            Some(w) => Err(format!("unknown workload {w} (one of {})", decl.workloads.join(", "))),
            None if required => Err("--workload is required".into()),
            None => Ok(None),
        }
    };
    let traced = || match get("trace") {
        Some("0") | None => Ok(false),
        Some("1") => Ok(true),
        Some(t) => Err(format!("--trace {t}: 0 or 1")),
    };
    let one = || -> Result<Request, String> {
        let workload = workload(true)?.expect("required");
        Ok(Request { workload, seed, seconds, traced: traced()? })
    };
    match sub {
        "one" => {
            let req = one()?;
            let result = supervise(&req, &decl);
            println!("{}", result_line(&result, decl.metrics(req.traced)));
            // The verdict travels in `correct`; the exit code says the
            // benchmark itself ran.
            Ok(ExitCode::SUCCESS)
        }
        "child" => Ok(child(&one()?, &decl)),
        "run" | "trace" => {
            let names = workload(false)?.map_or(decl.workloads.clone(), |w| vec![w]);
            let modes: &[bool] = if sub == "run" { &[false, true] } else { &[true] };
            let mut all_correct = true;
            for &traced in modes {
                for name in &names {
                    let req = Request { workload: name.clone(), seed, seconds, traced };
                    let result = supervise(&req, &decl);
                    print_table(&req, &result, decl.metrics(traced));
                    all_correct &= result.correct;
                }
            }
            Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "repeat" => {
            let sets = num("sets", 2.0)? as usize;
            if sets < 2 {
                return Err("--sets must be at least 2".into());
            }
            Ok(repeat(sets, seed, seconds, &decl))
        }
        other => Err(format!("unknown subcommand {other} (run, trace, repeat)")),
    }
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key =
            flag.strip_prefix("--").ok_or_else(|| format!("expected a --flag, got {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

/// Where this binary keeps scratch and trace files: beside itself, in
/// the build directory, which `.gitignore` covers.
fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent().expect("a binary lives in a directory").to_path_buf()
}

/// Caps this process's address space.
#[cfg(target_os = "linux")]
fn cap_address_space(bytes: u64) {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    let lim = Rlimit { cur: bytes, max: bytes };
    // SAFETY: `setrlimit` reads one `struct rlimit` (two 64-bit words on
    // 64-bit Linux, which `Rlimit` lays out with `repr(C)`) through a
    // pointer that is valid for the call, and keeps nothing.
    let rc = unsafe { setrlimit(RLIMIT_AS, &lim) };
    if rc != 0 {
        eprintln!("mcbench: could not cap the address space: {}", std::io::Error::last_os_error());
    }
}

#[cfg(not(target_os = "linux"))]
fn cap_address_space(_bytes: u64) {}

/// The child's whole life: cap memory, run the workload, print the
/// result line.
fn child(req: &Request, decl: &Decl) -> ExitCode {
    cap_address_space(ADDRESS_SPACE_CAP);
    let tmp =
        live::ScratchDir::create(&exe_dir().join("mcbench-tmp"), &std::process::id().to_string())
            .expect("the build directory is writable");
    let started = Instant::now();
    let env = Env { seed: req.seed, seconds: req.seconds, tmp: tmp.path().to_path_buf(), started };
    let report = if req.traced {
        let trace_dir = exe_dir().join("mcbench-trace");
        layers::traced(&req.workload, &env, &trace_dir)
    } else {
        workloads::end_to_end(&req.workload, &env)
    };
    match to_result(report, decl.metrics(req.traced)) {
        Ok(result) => {
            println!("{}", result_line(&result, decl.metrics(req.traced)));
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("mcbench: {}: no result: {why}", req.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs `req` in a child process under the watchdog. A child that
/// crashes, wedges or prints no result counts as one attempted, one
/// failed.
fn supervise(req: &Request, decl: &Decl) -> RunResult {
    let lost = RunResult { correct: false, attempted: 1, failed: 1, metrics: BTreeMap::new() };
    let exe = std::env::current_exe().expect("the running binary has a path");
    let spawned = Command::new(exe)
        .arg("child")
        .args(["--workload", &req.workload])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if req.traced { "1" } else { "0" }])
        // glibc raises its mmap threshold each time a large block is
        // freed, so a later segment's big vectors move into the heap and
        // are never returned: peak RSS crept from 35 to 63 MB over five
        // identical segments. Naming the default value pins it (and the
        // trim threshold with it: freed heap goes back to the kernel, which
        // costs allocation-heavy code — the checker — some page faults).
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn();
    let mut proc = match spawned {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mcbench: cannot start the child: {e}");
            return lost;
        }
    };
    let mut stdout = proc.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let deadline = Instant::now() + WATCHDOG;
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            stuck => {
                eprintln!("mcbench: {}: killed after {WATCHDOG:?}: {stuck:?}", req.workload);
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    // The pipe closes when the child exits (or is killed), so this ends.
    let out = reader.join().expect("the reader thread does not panic").unwrap_or_default();
    let result = out.lines().last().and_then(parse_result_line);
    match (status, result) {
        (Some(s), Some(r)) if s.success() => {
            let declared = decl.metrics(req.traced);
            let complete = declared.iter().all(|m| r.metrics.contains_key(&m.name));
            if complete && r.metrics.len() == declared.len() {
                r
            } else {
                eprintln!(
                    "mcbench: {}: the child's metrics do not match BENCHMARK.json",
                    req.workload
                );
                lost
            }
        }
        (status, _) => {
            eprintln!("mcbench: {}: child ended with {status:?} and no result", req.workload);
            lost
        }
    }
}

fn print_table(req: &Request, r: &RunResult, declared: &[MetricDecl]) {
    println!(
        "== {} (seed {}, {} s, {}) — correct: {}, attempted: {}, failed: {}",
        req.workload,
        req.seed,
        req.seconds,
        if req.traced { "traced" } else { "untraced" },
        r.correct,
        r.attempted,
        r.failed
    );
    for m in declared {
        match r.metrics.get(&m.name) {
            Some(v) => println!("  {:<40} {:>16.4} {}", m.name, v, m.unit),
            None => println!("  {:<40} {:>16} {}", m.name, "-", m.unit),
        }
    }
}

/// `repeat`: runs the untraced benchmark `sets` times and holds each
/// set against the first: an end-to-end metric that is worse than the
/// first set's by more than its bound is a disagreement.
fn repeat(sets: usize, seed: u64, seconds: f64, decl: &Decl) -> ExitCode {
    let mut agree = true;
    let mut all_correct = true;
    for name in &decl.workloads {
        let results: Vec<RunResult> = (0..sets)
            .map(|_| {
                let req = Request { workload: name.clone(), seed, seconds, traced: false };
                supervise(&req, decl)
            })
            .collect();
        all_correct &= results.iter().all(|r| r.correct);
        println!("== {name}: {sets} sets, seed {seed}, {seconds} s");
        for m in &decl.end_to_end {
            let values: Vec<f64> = results
                .iter()
                .map(|r| r.metrics.get(&m.name).copied().unwrap_or(f64::NAN))
                .collect();
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // Worsening of each later set relative to the first, as a
            // share of the first: positive is worse.
            let worst = values[1..]
                .iter()
                .map(|v| {
                    let change = (v - values[0]) / values[0];
                    if m.higher_is_better {
                        -change
                    } else {
                        change
                    }
                })
                .fold(f64::NEG_INFINITY, f64::max);
            let ok = worst <= bound;
            agree &= ok;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<20} {:<8} {:<44} worst {:+.2}%  bound {:.0}%  {}",
                m.name,
                m.unit,
                shown.join("  "),
                100.0 * worst,
                100.0 * bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    if agree && all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
