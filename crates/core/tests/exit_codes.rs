//! Table-driven coverage of `mc-check`'s documented exit-code contract:
//! 0 = clean (or replay not reproduced), 1 = violation found (or replay
//! reproduced), 2 = malformed input / usage error. Both the checker mode
//! and `--replay` mode are exercised, including an artifact truncated
//! mid-write (the spec section cut off), which must be rejected as
//! malformed rather than silently replayed as a shorter program.

use std::process::Command;

use mixed_consistency::model::{litmus, trace};
use mixed_consistency::repro::FailureKind;
use mixed_consistency::{Loc, ModelSpec, ProcModel, ProgSpec, ReadLabel, Repro, SpecOp};

/// A well-formed replay artifact for a correct program: parses cleanly,
/// does not reproduce any failure.
fn passing_artifact() -> String {
    Repro {
        kind: FailureKind::Verify,
        reason: "synthetic".to_string(),
        allow_deadlock: false,
        budget: None,
        trace: Vec::new(),
        disks: Vec::new(),
        spec: ProgSpec::new(ProcModel::CAUSAL)
            .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }])
            .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }]),
    }
    .to_text()
}

/// A lattice-parameterized replay artifact: the spec pins each process
/// to a named lattice point (`models causal slow`), so the replay is
/// verified by the declarative lattice validator under exactly that
/// assignment. The program is consistent, so the failure is not
/// reproduced.
fn lattice_artifact() -> String {
    Repro {
        kind: FailureKind::Verify,
        reason: "synthetic lattice case".to_string(),
        allow_deadlock: false,
        budget: None,
        trace: Vec::new(),
        disks: Vec::new(),
        spec: ProgSpec::new(ProcModel::MIXED)
            .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }])
            .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }])
            .models(vec![ProcModel::Fixed(ModelSpec::CAUSAL), ProcModel::Fixed(ModelSpec::SLOW)]),
    }
    .to_text()
}

/// A sharded replay artifact: the spec partitions the address space
/// (`shards 2`) with an explicit interest override, so the replay runs
/// the partial-replication protocol and is judged per shard. The
/// program is consistent, so the failure is not reproduced.
fn sharded_artifact() -> String {
    Repro {
        kind: FailureKind::Verify,
        reason: "synthetic sharded case".to_string(),
        allow_deadlock: false,
        budget: None,
        trace: Vec::new(),
        disks: Vec::new(),
        spec: ProgSpec::new(ProcModel::CAUSAL)
            .sharded(2)
            .interest(1, vec![0])
            .proc(vec![SpecOp::Write { loc: Loc(1), value: 1 }])
            .proc(vec![SpecOp::Read { loc: Loc(1), label: ReadLabel::Causal }]),
    }
    .to_text()
}

/// A recovery repro: a durable single-process program that deadlocks
/// (awaits a value nobody writes), carrying a crash-recover fault budget
/// and the pre-crash durable disk image of replica 0.
fn recovery_artifact() -> String {
    let root = std::path::Path::new("");
    let mut disk = mc_proto::FileDisk::open_on(mixed_consistency::CrashFs::default(), root)
        .expect("a CrashFs opens");
    disk.append(&mc_proto::WalRecord::Incarnation { incarnation: 1 }.encode()).expect("append");
    disk.sync().expect("sync");
    Repro {
        kind: FailureKind::Run,
        reason: "deadlock after recovery".to_string(),
        allow_deadlock: false,
        budget: Some(
            mixed_consistency::FaultBudget::new().crash_recover_of(mixed_consistency::NodeId(0)),
        ),
        trace: Vec::new(),
        disks: vec![(0, disk.fs().image())],
        spec: ProgSpec::new(ProcModel::PRAM)
            .durable(2)
            .proc(vec![SpecOp::Await { loc: Loc(0), value: 1 }]),
    }
    .to_text()
}

/// The same artifact cut off just before its spec section — what a
/// crashed writer or a truncated download leaves behind.
fn truncated_artifact() -> String {
    let full = passing_artifact();
    let spec_starts = full.find("\nmode").expect("artifact has a spec section");
    full[..spec_starts + 1].to_string()
}

struct Case {
    name: &'static str,
    /// Artifact content, written to a temp file; `None` points mc-check
    /// at a nonexistent path instead.
    content: Option<String>,
    flags: &'static [&'static str],
    expect: i32,
    /// Substring the combined stdout+stderr must contain.
    output_contains: &'static str,
}

#[test]
fn mc_check_exit_codes_cover_the_documented_contract() {
    let cases = [
        Case {
            name: "consistent history exits 0",
            content: Some(trace::to_text(&litmus::causality_chain(ReadLabel::Pram))),
            flags: &["--pram"],
            expect: 0,
            output_contains: "ok",
        },
        Case {
            name: "violating history exits 1",
            content: Some(trace::to_text(&litmus::fifo_violation())),
            flags: &["--pram"],
            expect: 1,
            output_contains: "VIOLATION",
        },
        Case {
            name: "replay of a passing artifact exits 0",
            content: Some(passing_artifact()),
            flags: &["--replay"],
            expect: 0,
            output_contains: "not reproduced",
        },
        Case {
            name: "replay of a lattice artifact exits 0",
            content: Some(lattice_artifact()),
            flags: &["--replay"],
            expect: 0,
            output_contains: "not reproduced",
        },
        Case {
            name: "lattice artifact with unknown model name exits 2",
            content: Some(lattice_artifact().replace("models causal slow", "models causal banana")),
            flags: &["--replay"],
            expect: 2,
            output_contains: "unknown model name",
        },
        Case {
            name: "lattice artifact with duplicate models line exits 2",
            content: Some(
                lattice_artifact()
                    .replace("models causal slow", "models causal slow\nmodels causal slow"),
            ),
            flags: &["--replay"],
            expect: 2,
            output_contains: "duplicate `models` line",
        },
        Case {
            name: "replay of a sharded artifact exits 0",
            content: Some(sharded_artifact()),
            flags: &["--replay"],
            expect: 0,
            output_contains: "not reproduced",
        },
        Case {
            name: "sharded artifact with bad shard count exits 2",
            content: Some(sharded_artifact().replace("shards 2", "shards banana")),
            flags: &["--replay"],
            expect: 2,
            output_contains: "bad shard count",
        },
        Case {
            name: "sharded artifact with out-of-range interest exits 2",
            content: Some(sharded_artifact().replace("interest 1 0", "interest 1 9")),
            flags: &["--replay"],
            expect: 2,
            output_contains: "names shard 9",
        },
        Case {
            name: "sharded artifact with bad interest token exits 2",
            content: Some(sharded_artifact().replace("interest 1 0", "interest 1 zap")),
            flags: &["--replay"],
            expect: 2,
            output_contains: "bad shard id",
        },
        Case {
            name: "recovery repro that reproduces exits 1",
            content: Some(recovery_artifact()),
            flags: &["--replay"],
            expect: 1,
            output_contains: "REPRODUCED",
        },
        Case {
            name: "recovery repro with garbage disk hex exits 2",
            content: Some(recovery_artifact().replace("disk 0 ", "disk 0 zz")),
            flags: &["--replay"],
            expect: 2,
            output_contains: "bad disk hex",
        },
        Case {
            name: "garbage artifact exits 2",
            content: Some("kind banana\nmode pram\nproc 0\n".to_string()),
            flags: &["--replay"],
            expect: 2,
            output_contains: "unknown failure kind",
        },
        Case {
            name: "truncated artifact exits 2",
            content: Some(truncated_artifact()),
            flags: &["--replay"],
            expect: 2,
            output_contains: "",
        },
        Case {
            name: "garbage history exits 2",
            content: Some("procs banana\n".to_string()),
            flags: &[],
            expect: 2,
            output_contains: "",
        },
        Case {
            name: "unreadable file exits 2",
            content: None,
            flags: &["--replay"],
            expect: 2,
            output_contains: "cannot read",
        },
        Case {
            name: "unknown flag exits 2",
            content: Some(passing_artifact()),
            flags: &["--frobnicate"],
            expect: 2,
            output_contains: "usage",
        },
    ];

    for (i, case) in cases.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("mc-exitcode-{}-{i}", std::process::id()));
        match &case.content {
            Some(text) => std::fs::write(&path, text).expect("write artifact"),
            None => {
                let _ = std::fs::remove_file(&path);
            }
        }
        let out = Command::new(env!("CARGO_BIN_EXE_mc-check"))
            .arg(&path)
            .args(case.flags)
            .output()
            .expect("run mc-check");
        let combined = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.status.code(),
            Some(case.expect),
            "{}: expected exit {}, got {:?}\noutput: {combined}",
            case.name,
            case.expect,
            out.status.code()
        );
        assert!(
            combined.contains(case.output_contains),
            "{}: output missing {:?}: {combined}",
            case.name,
            case.output_contains
        );
        let _ = std::fs::remove_file(&path);
    }
}
