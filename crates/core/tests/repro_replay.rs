//! End-to-end acceptance test for the counterexample pipeline: a seeded
//! fault-plan violation is explored, minimized into a repro artifact,
//! and the artifact must replay deterministically through the real
//! `mc-check --replay` binary with the documented exit codes (0 = not
//! reproduced, 1 = reproduced, 2 = malformed input).

use std::path::PathBuf;
use std::process::{Command, Output};

use mixed_consistency::explore::ExploreOptions;
use mixed_consistency::repro::{find_and_minimize, FailureKind};
use mixed_consistency::{FaultBudget, Loc, ProcModel, ProgSpec, ReadLabel, Repro, SpecOp};

/// A PRAM store chain whose middle update may be dropped: the reader
/// observes the flag but misses the dropped write — a Definition 3
/// violation reachable only through fault nondeterminism.
fn dropped_update_spec() -> ProgSpec {
    ProgSpec::new(ProcModel::PRAM)
        .proc(vec![
            SpecOp::Write { loc: Loc(0), value: 1 },
            SpecOp::Write { loc: Loc(0), value: 2 },
            SpecOp::Write { loc: Loc(1), value: 1 },
        ])
        .proc(vec![
            SpecOp::Await { loc: Loc(1), value: 1 },
            SpecOp::Read { loc: Loc(0), label: ReadLabel::Pram },
        ])
}

fn write_artifact(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mc-repro-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write artifact");
    path
}

fn mc_check_replay(path: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mc-check"))
        .arg(path)
        .arg("--replay")
        .output()
        .expect("run mc-check")
}

#[test]
fn minimized_fault_violation_reproduces_through_mc_check() {
    let budget = FaultBudget::new().drops(1);
    let options = ExploreOptions::new().allow_deadlock(true).max_runs(50_000);
    let repro = find_and_minimize(&dropped_update_spec(), Some(&budget), &options)
        .expect("a dropped update violates PRAM consistency");
    assert_eq!(repro.kind, FailureKind::Verify);

    let path = write_artifact("violation.txt", &repro.to_text());
    let first = mc_check_replay(&path);
    assert_eq!(
        first.status.code(),
        Some(1),
        "reproduced failures exit 1\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(String::from_utf8_lossy(&first.stdout).contains("REPRODUCED"));

    // Determinism: a second replay of the same artifact behaves
    // identically, byte for byte.
    let second = mc_check_replay(&path);
    assert_eq!(second.status.code(), Some(1));
    assert_eq!(first.stdout, second.stdout);
    let _ = std::fs::remove_file(path);
}

#[test]
fn passing_artifact_exits_zero() {
    // A correct program under the same format: the recorded failure no
    // longer reproduces, so replay reports success.
    let repro = Repro {
        kind: FailureKind::Verify,
        reason: "synthetic".to_string(),
        allow_deadlock: false,
        budget: None,
        trace: Vec::new(),
        disks: Vec::new(),
        spec: ProgSpec::new(ProcModel::CAUSAL)
            .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }])
            .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }]),
    };
    let path = write_artifact("passing.txt", &repro.to_text());
    let out = mc_check_replay(&path);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("not reproduced"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn malformed_artifact_exits_two() {
    let path = write_artifact("garbage.txt", "kind banana\nmode pram\nproc 0\n");
    let out = mc_check_replay(&path);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(path);
}
