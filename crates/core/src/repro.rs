//! Counterexample minimization and machine-readable repro artifacts.
//!
//! When exploration finds a violation, the raw evidence is a program, a
//! fault budget, and a decision trace — often much bigger than the bug.
//! This module shrinks all three and packages what remains as a [`Repro`]
//! artifact: a small text file that `mc-check --replay` re-executes
//! deterministically, turning every exploration failure into a
//! regression test.
//!
//! Minimization is greedy and category-preserving: an edit (dropping an
//! operation, a lock pair, a barrier object, a whole process; truncating
//! the decision trace; lowering individual decisions) is kept only if
//! the *same category* of failure — a failed run or a rejected
//! verification — still occurs.

use std::fmt::Write as _;

use mc_sim::schedule::ReplaySchedule;
use mc_sim::{FaultBudget, NodeId, SimError};

use crate::explore::{explore_with, ExploreError, ExploreOptions};
use crate::progspec::{ProgSpec, SpecOp};
use crate::system::RunError;

/// The failure category a repro reproduces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The run itself failed (deadlock, malformed history, sim error).
    Run,
    /// The run completed but its history violated the consistency
    /// definition of the program's mode.
    Verify,
}

/// A minimized, self-contained counterexample: program, fault budget,
/// and the decision trace that drives the simulator into the failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Repro {
    /// What kind of failure this reproduces.
    pub kind: FailureKind,
    /// Human-readable description of the original failure.
    pub reason: String,
    /// Whether deadlocked runs count as tolerated dead ends (crash and
    /// drop exploration) rather than failures.
    pub allow_deadlock: bool,
    /// The fault budget the run was explored under, if any.
    pub budget: Option<FaultBudget>,
    /// The decision prefix to replay (all later decisions are 0).
    pub trace: Vec<u32>,
    /// Pre-seeded replica disk images (`(proc, CrashFs::image)`),
    /// for repros that start from a specific durable state — e.g. a
    /// torn WAL tail a reborn node must recover through.
    pub disks: Vec<(u32, Vec<u8>)>,
    /// The program.
    pub spec: ProgSpec,
}

/// What one deterministic replay of a repro candidate produced.
#[derive(Clone, PartialEq, Eq, Debug)]
enum RunResult {
    /// Completed and verified.
    Pass,
    /// Deadlocked (tolerated under `allow_deadlock`).
    Deadlock(String),
    /// Failed to execute.
    RunFail(String),
    /// Completed but the checker rejected the history.
    VerifyFail(String),
}

impl RunResult {
    fn kind(&self, allow_deadlock: bool) -> Option<FailureKind> {
        match self {
            RunResult::Pass => None,
            RunResult::Deadlock(_) if allow_deadlock => None,
            RunResult::Deadlock(_) | RunResult::RunFail(_) => Some(FailureKind::Run),
            RunResult::VerifyFail(_) => Some(FailureKind::Verify),
        }
    }
}

/// Runs the spec once under the given decision prefix and classifies
/// the result.
fn run_once(
    spec: &ProgSpec,
    budget: Option<&FaultBudget>,
    prefix: &[u32],
    disks: &[(u32, Vec<u8>)],
) -> RunResult {
    let mut sys = spec.build_system();
    if let Some(b) = budget {
        sys = sys.explore_faults(b.clone());
    }
    for (p, image) in disks {
        match mc_proto::CrashFs::from_image(image) {
            Some(fs) => sys = sys.seed_disk(crate::ProcId(*p), fs),
            None => return RunResult::RunFail(format!("disk image for proc {p} is malformed")),
        }
    }
    sys.zero_jitter_for_exploration();
    let (schedule, _trace) = ReplaySchedule::new(prefix.to_vec());
    sys.set_schedule(Box::new(schedule));
    match sys.run() {
        Ok(outcome) => match outcome.verify() {
            Ok(()) => RunResult::Pass,
            Err(e) => RunResult::VerifyFail(e.to_string()),
        },
        Err(RunError::Sim(e @ SimError::Deadlock { .. })) => RunResult::Deadlock(e.to_string()),
        Err(e) => RunResult::RunFail(e.to_string()),
    }
}

/// Explores the spec under the budget; on failure returns the category,
/// message, and full failing decision trace.
fn find_failure(
    spec: &ProgSpec,
    budget: Option<&FaultBudget>,
    options: &ExploreOptions,
) -> Option<(FailureKind, String, Vec<u32>)> {
    let result = explore_with(
        options.clone(),
        || {
            let mut sys = spec.build_system();
            if let Some(b) = budget {
                sys = sys.explore_faults(b.clone());
            }
            sys
        },
        |o| o.verify().map_err(|e| e.to_string()),
    );
    match result {
        Ok(_) => None,
        Err(ExploreError::Run { trace, source, .. }) => {
            Some((FailureKind::Run, source.to_string(), trace.choices))
        }
        Err(ExploreError::Verify { trace, message, .. }) => {
            Some((FailureKind::Verify, message, trace.choices))
        }
    }
}

/// Explores the program for a violation and, if one is found, minimizes
/// it into a [`Repro`]: the program is shrunk structurally, then the
/// decision trace is truncated to the shortest failing prefix and each
/// decision greedily lowered. Returns `None` when exploration (within
/// `options`' budget) finds no failure.
pub fn find_and_minimize(
    spec: &ProgSpec,
    budget: Option<&FaultBudget>,
    options: &ExploreOptions,
) -> Option<Repro> {
    let (kind, reason, _) = find_failure(spec, budget, options)?;

    // Program shrinking: keep any structural edit that preserves the
    // failure category, restarting the candidate scan after each
    // accepted edit until no edit survives.
    let mut spec = spec.clone();
    let mut trace = None;
    'shrink: loop {
        for candidate in shrink_candidates(&spec) {
            if let Some((k, _, t)) = find_failure(&candidate, budget, options) {
                if k == kind {
                    spec = candidate;
                    trace = Some(t);
                    continue 'shrink;
                }
            }
        }
        break;
    }
    let mut trace = match trace {
        Some(t) => t,
        None => find_failure(&spec, budget, options)?.2,
    };

    // Shortest failing prefix: decisions beyond the prefix default to 0
    // on replay, so trailing decisions that the failure does not depend
    // on can simply be cut.
    let same = |prefix: &[u32]| {
        run_once(&spec, budget, prefix, &[]).kind(options.allow_deadlock) == Some(kind)
    };
    if let Some(cut) = (0..=trace.len()).find(|&i| same(&trace[..i])) {
        trace.truncate(cut);
    }
    // Greedy decision lowering: prefer the smallest choice at every
    // position that still fails.
    for i in 0..trace.len() {
        let original = trace[i];
        for lower in 0..original {
            trace[i] = lower;
            if same(&trace) {
                break;
            }
            trace[i] = original;
        }
    }
    while let Some(&0) = trace.last() {
        if !same(&trace[..trace.len() - 1]) {
            break;
        }
        trace.pop();
    }

    Some(Repro {
        kind,
        // The artifact's reason field is single-line.
        reason: reason.replace('\n', " | ").trim().to_string(),
        allow_deadlock: options.allow_deadlock,
        budget: budget.cloned(),
        trace,
        disks: Vec::new(),
        spec,
    })
}

/// Structural edits that plausibly preserve well-formedness, most
/// aggressive first: drop a process, a barrier object, a lock pair, or
/// a single plain operation.
fn shrink_candidates(spec: &ProgSpec) -> Vec<ProgSpec> {
    let mut out = Vec::new();
    // Whole processes.
    if spec.procs.len() > 1 {
        for p in 0..spec.procs.len() {
            let mut s = spec.clone();
            s.procs.remove(p);
            out.push(s);
        }
    }
    // Whole barrier objects (removing single arrivals would desync
    // participants).
    let mut barriers: Vec<_> = spec
        .procs
        .iter()
        .flatten()
        .filter_map(|op| match op {
            SpecOp::Barrier { barrier } => Some(*barrier),
            _ => None,
        })
        .collect();
    barriers.sort();
    barriers.dedup();
    for b in barriers {
        let mut s = spec.clone();
        for ops in &mut s.procs {
            ops.retain(|op| !matches!(op, SpecOp::Barrier { barrier } if *barrier == b));
        }
        out.push(s);
    }
    // Lock pairs: a lock and the first matching unlock after it.
    for (p, ops) in spec.procs.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let SpecOp::Lock { lock, mode } = op {
                let matching = ops[i + 1..].iter().position(
                    |o| matches!(o, SpecOp::Unlock { lock: l, mode: m } if l == lock && m == mode),
                );
                if let Some(j) = matching {
                    let mut s = spec.clone();
                    s.procs[p].remove(i + 1 + j);
                    s.procs[p].remove(i);
                    out.push(s);
                }
            }
        }
    }
    // Single plain operations.
    for (p, ops) in spec.procs.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if matches!(
                op,
                SpecOp::Write { .. }
                    | SpecOp::Add { .. }
                    | SpecOp::Read { .. }
                    | SpecOp::Await { .. }
            ) {
                let mut s = spec.clone();
                s.procs[p].remove(i);
                out.push(s);
            }
        }
    }
    out
}

impl Repro {
    /// Replays the repro deterministically.
    ///
    /// Returns `true` if the recorded failure category reproduces,
    /// `false` if the run passes (or deadlocks tolerably).
    pub fn replay(&self) -> bool {
        run_once(&self.spec, self.budget.as_ref(), &self.trace, &self.disks)
            .kind(self.allow_deadlock)
            == Some(self.kind)
    }

    /// The message the replayed failure produces now (for display).
    pub fn replay_message(&self) -> String {
        match run_once(&self.spec, self.budget.as_ref(), &self.trace, &self.disks) {
            RunResult::Pass => "run passed".to_string(),
            RunResult::Deadlock(m) | RunResult::RunFail(m) | RunResult::VerifyFail(m) => m,
        }
    }

    /// Renders the artifact in the text format accepted by
    /// [`Repro::parse`] (and by `mc-check --replay`).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# mixed-consistency repro v1\n");
        let _ = writeln!(
            out,
            "kind {}",
            match self.kind {
                FailureKind::Run => "run",
                FailureKind::Verify => "verify",
            }
        );
        let _ = writeln!(out, "reason {}", self.reason.replace('\n', " | "));
        if self.allow_deadlock {
            let _ = writeln!(out, "allow-deadlock");
        }
        if let Some(b) = &self.budget {
            if b.max_drops > 0 {
                let _ = writeln!(out, "fault-drops {}", b.max_drops);
            }
            if b.max_duplicates > 0 {
                let _ = writeln!(out, "fault-dups {}", b.max_duplicates);
            }
            if !b.crashes.is_empty() {
                let nodes: Vec<String> = b.crashes.iter().map(|n| n.0.to_string()).collect();
                let _ = writeln!(out, "fault-crashes {}", nodes.join(" "));
            }
            if !b.recovers.is_empty() {
                let nodes: Vec<String> = b.recovers.iter().map(|n| n.0.to_string()).collect();
                let _ = writeln!(out, "fault-recovers {}", nodes.join(" "));
            }
        }
        if !self.trace.is_empty() {
            let steps: Vec<String> = self.trace.iter().map(u32::to_string).collect();
            let _ = writeln!(out, "trace {}", steps.join(" "));
        }
        for (p, image) in &self.disks {
            let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
            let _ = writeln!(out, "disk {p} {hex}");
        }
        out.push_str(&self.spec.to_text());
        out
    }

    /// Parses the text format produced by [`Repro::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut kind = None;
        let mut reason = String::new();
        let mut allow_deadlock = false;
        let mut budget = FaultBudget::new();
        let mut has_budget = false;
        let mut trace = Vec::new();
        let mut disks = Vec::new();
        let mut spec_text = String::new();
        let mut in_spec = false;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| format!("line {}: {msg}: {line:?}", ln + 1);
            if in_spec {
                spec_text.push_str(raw);
                spec_text.push('\n');
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
            match word {
                "kind" => {
                    kind = Some(match rest {
                        "run" => FailureKind::Run,
                        "verify" => FailureKind::Verify,
                        _ => return Err(err("unknown failure kind")),
                    });
                }
                "reason" => reason = rest.to_string(),
                "allow-deadlock" => allow_deadlock = true,
                "fault-drops" => {
                    budget.max_drops = rest.parse().map_err(|_| err("bad drop count"))?;
                    has_budget = true;
                }
                "fault-dups" => {
                    budget.max_duplicates = rest.parse().map_err(|_| err("bad dup count"))?;
                    has_budget = true;
                }
                "fault-crashes" => {
                    for w in rest.split_whitespace() {
                        let n: u32 = w.parse().map_err(|_| err("bad crash node"))?;
                        budget.crashes.push(NodeId(n));
                    }
                    has_budget = true;
                }
                "fault-recovers" => {
                    for w in rest.split_whitespace() {
                        let n: u32 = w.parse().map_err(|_| err("bad recover node"))?;
                        budget.recovers.push(NodeId(n));
                    }
                    has_budget = true;
                }
                "trace" => {
                    for w in rest.split_whitespace() {
                        trace.push(w.parse().map_err(|_| err("bad trace step"))?);
                    }
                }
                "disk" => {
                    let (proc, hex) = rest.split_once(' ').ok_or_else(|| err("bad disk line"))?;
                    let proc: u32 = proc.parse().map_err(|_| err("bad disk proc"))?;
                    let hex = hex.trim();
                    if hex.len() % 2 != 0 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(err("bad disk hex"));
                    }
                    let bytes = (0..hex.len())
                        .step_by(2)
                        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                        .collect();
                    disks.push((proc, bytes));
                }
                _ => {
                    // The spec begins at its `mode` or `models` line.
                    in_spec = true;
                    spec_text.push_str(raw);
                    spec_text.push('\n');
                }
            }
        }
        Ok(Repro {
            kind: kind.ok_or("missing `kind` line")?,
            reason,
            allow_deadlock,
            budget: has_budget.then_some(budget),
            trace,
            disks,
            spec: ProgSpec::parse(&spec_text)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loc, ReadLabel};
    use mc_model::ProcModel;

    /// The acceptance program: a PRAM store chain whose middle update
    /// may be dropped, producing a Definition 3 violation when the
    /// reader observes the flag but not the dropped write.
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

    fn minimize_options() -> ExploreOptions {
        ExploreOptions::new().allow_deadlock(true).max_runs(50_000)
    }

    #[test]
    fn finds_and_minimizes_a_fault_violation() {
        let budget = FaultBudget::new().drops(1);
        let repro = find_and_minimize(&dropped_update_spec(), Some(&budget), &minimize_options())
            .expect("a drop violates PRAM consistency");
        assert_eq!(repro.kind, FailureKind::Verify);
        assert!(repro.replay(), "the minimized artifact must still fail: {}", repro.to_text());
        // Minimization must not grow the program.
        assert!(repro.spec.len() <= dropped_update_spec().len());
        assert!(!repro.reason.is_empty());
    }

    #[test]
    fn artifact_round_trips_and_replays() {
        let budget = FaultBudget::new().drops(1);
        let repro = find_and_minimize(&dropped_update_spec(), Some(&budget), &minimize_options())
            .expect("violation found");
        let text = repro.to_text();
        let back = Repro::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert!(back.replay(), "parsed artifact replays deterministically");
        assert!(!back.replay_message().is_empty());
    }

    #[test]
    fn correct_programs_yield_no_repro() {
        let spec = ProgSpec::new(ProcModel::CAUSAL)
            .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }])
            .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }]);
        assert!(find_and_minimize(&spec, None, &ExploreOptions::new()).is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Repro::parse("kind banana\nmode pram\nproc 0").is_err());
        assert!(Repro::parse("mode pram\nproc 0").is_err(), "missing kind");
        assert!(Repro::parse("kind verify\ntrace x\nmode pram\nproc 0").is_err());
        assert!(Repro::parse("kind verify\nfault-drops many\nmode pram\nproc 0").is_err());
        assert!(Repro::parse("kind verify\nfault-recovers x\nmode pram\nproc 0").is_err());
        assert!(Repro::parse("kind verify\ndisk 0 zz\nmode pram\nproc 0").is_err());
        assert!(Repro::parse("kind verify\ndisk 0 abc\nmode pram\nproc 0").is_err(), "odd hex");
    }

    #[test]
    fn recovery_artifact_round_trips_and_replays() {
        // A recovery repro carries three extra ingredients: the
        // crash-recover budget, the spec's durability cadence, and the
        // pre-crash durable disk image the reborn node recovers from.
        // The program deadlocks (awaits a value nobody writes), so the
        // Run failure reproduces under any replayed decision prefix.
        let root = std::path::Path::new("");
        let mut disk = mc_proto::FileDisk::open_on(mc_proto::CrashFs::default(), root).unwrap();
        disk.append(&mc_proto::WalRecord::Incarnation { incarnation: 1 }.encode()).unwrap();
        disk.sync().unwrap();
        let repro = Repro {
            kind: FailureKind::Run,
            reason: "deadlock: process 0 awaits a value never written".to_string(),
            allow_deadlock: false,
            budget: Some(FaultBudget::new().crash_recover_of(NodeId(0))),
            trace: Vec::new(),
            disks: vec![(0, disk.fs().image())],
            spec: ProgSpec::new(ProcModel::PRAM)
                .durable(2)
                .proc(vec![SpecOp::Await { loc: Loc(0), value: 1 }]),
        };
        let text = repro.to_text();
        assert!(text.contains("fault-recovers 0"), "{text}");
        assert!(text.contains("durability 2"), "{text}");
        assert!(text.contains("disk 0 "), "{text}");
        let back = Repro::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert!(back.replay(), "the recovery repro reproduces: {}", back.replay_message());
    }

    #[test]
    fn malformed_disk_image_fails_the_replay_cleanly() {
        let repro = Repro {
            kind: FailureKind::Run,
            reason: String::new(),
            allow_deadlock: false,
            budget: None,
            trace: Vec::new(),
            disks: vec![(0, vec![0x7f, 0x00])],
            spec: ProgSpec::new(ProcModel::PRAM)
                .durable(2)
                .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }]),
        };
        assert!(repro.replay_message().contains("malformed"));
    }
}
