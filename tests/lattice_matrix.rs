//! The litmus × lattice conformance matrix.
//!
//! Every litmus program is explored once (DPOR, exhaustive) on the
//! mixed-consistency protocol, the distinct explored histories are
//! collected, and each history set is judged against **every** point of
//! the consistency-model lattice through the declarative validator
//! ([`mc_model::spec::check_model`]). A cell is `true` when *all*
//! observable executions of the program satisfy that lattice point and
//! `false` when at least one execution exhibits the point's anomaly.
//!
//! The full matrix is pinned below. A flipped cell fails loudly with the
//! recomputed table, because a flip means either the protocol's
//! observable behavior changed or a lattice point's declarative meaning
//! drifted — both are semantic regressions, never noise.
//!
//! A second suite runs the protocol *under* each lattice point
//! (per-process model assignment threaded through the substrate) and
//! asserts every DPOR-explored execution verifies against the assigned
//! spec: the implementation-vs-specification agreement check for the
//! new points (slow, weak ordering, processor consistency) as well as
//! the four legacy ones.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mc_model::{spec::check_model, History, ModelAssignment, ModelSpec, ProcModel};
use mixed_consistency::explore::{explore_with, ExploreOptions};
use mixed_consistency::{ProgSpec, ReadLabel, SpecOp};

fn w(loc: u32, value: i64) -> SpecOp {
    SpecOp::Write { loc: mixed_consistency::Loc(loc), value }
}

fn r(loc: u32, label: ReadLabel) -> SpecOp {
    SpecOp::Read { loc: mixed_consistency::Loc(loc), label }
}

fn rc(loc: u32) -> SpecOp {
    r(loc, ReadLabel::Causal)
}

fn rp(loc: u32) -> SpecOp {
    r(loc, ReadLabel::Pram)
}

/// The litmus corpus: the classic shapes with causal reads, plus PRAM
/// variants where the weaker label widens the observable set (which is
/// what separates the lower lattice points).
fn corpus() -> Vec<(&'static str, ProgSpec)> {
    vec![
        (
            "store_buffer",
            ProgSpec::new(ProcModel::MIXED).proc(vec![w(0, 1), rc(1)]).proc(vec![w(1, 1), rc(0)]),
        ),
        (
            "store_buffer_pram",
            ProgSpec::new(ProcModel::MIXED).proc(vec![w(0, 1), rp(1)]).proc(vec![w(1, 1), rp(0)]),
        ),
        (
            "causality_chain",
            ProgSpec::new(ProcModel::MIXED)
                .proc(vec![w(0, 1)])
                .proc(vec![rc(0), w(1, 2)])
                .proc(vec![rp(1), rp(0)]),
        ),
        (
            "iriw",
            ProgSpec::new(ProcModel::MIXED)
                .proc(vec![w(0, 1)])
                .proc(vec![w(1, 1)])
                .proc(vec![rc(0), rc(1)])
                .proc(vec![rc(1), rc(0)]),
        ),
        (
            "wrc",
            ProgSpec::new(ProcModel::MIXED)
                .proc(vec![w(0, 1)])
                .proc(vec![rc(0), w(1, 1)])
                .proc(vec![rp(1), rp(0)]),
        ),
        (
            "two_plus_two_w",
            ProgSpec::new(ProcModel::MIXED)
                .proc(vec![w(0, 1), w(1, 2)])
                .proc(vec![w(1, 1), w(0, 2)])
                .proc(vec![rc(0), rc(0)]),
        ),
    ]
}

/// The lattice points of the matrix columns, strongest first, plus the
/// per-read mixed assignment (Definition 4) as the final column.
fn points() -> Vec<(&'static str, ProcModel)> {
    let mut pts: Vec<(&'static str, ProcModel)> =
        ModelSpec::ALL.iter().map(|s| (s.name, ProcModel::Fixed(*s))).collect();
    pts.push(("mixed", ProcModel::ByLabel));
    pts
}

/// Explores `spec` exhaustively with DPOR and returns the distinct
/// observable histories (deduplicated by signature).
fn explored_histories(name: &str, spec: &ProgSpec) -> Vec<History> {
    let seen: Mutex<BTreeMap<u64, History>> = Mutex::new(BTreeMap::new());
    let out = explore_with(
        ExploreOptions::new().max_runs(3_000_000),
        || spec.build_system(),
        |o| {
            let h = o.history.as_ref().expect("recording enabled");
            seen.lock().unwrap().entry(h.signature()).or_insert_with(|| h.clone());
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
    assert!(out.complete, "{name}: DPOR must exhaust the tree ({} runs)", out.runs);
    let histories: Vec<History> = seen.into_inner().unwrap().into_values().collect();
    assert!(!histories.is_empty(), "{name}: no executions explored");
    histories
}

/// `true` iff every history satisfies the lattice point when assigned
/// uniformly to all processes.
fn all_pass(histories: &[History], point: ProcModel) -> bool {
    histories.iter().all(|h| {
        let models = ModelAssignment::per_proc(vec![point; h.nprocs()]);
        check_model(h, &models).is_ok()
    })
}

/// The pinned conformance matrix: for each litmus program, the verdict
/// per lattice point in [`points`] order
/// (sc, causal, processor, pram, weak, slow, mixed).
///
/// `true` = every observable execution satisfies the point;
/// `false` = the point's anomaly is observable on the protocol.
/// Noteworthy pinned facts: the Dekker store buffer is the only corpus
/// program whose SC anomaly the protocol can actually exhibit. The IRIW
/// split and the stale causality-chain tail — both *legal* under causal
/// and mixed consistency — are never produced by this implementation
/// (verified against naive DFS, not just DPOR): the replicated protocol
/// is strictly stronger than the weak points it is judged against, so
/// those rows pass everywhere. The declarative validator's ability to
/// *reject* such anomalies is pinned separately in
/// [`anomaly_histories_by_lattice_matrix_matches_pinned_verdicts`],
/// which feeds it hand-built anomaly histories directly.
const PINNED: &[(&str, [bool; 7])] = &[
    //                    sc     causal processor pram  weak  slow  mixed
    ("store_buffer", [false, true, true, true, true, true, true]),
    ("store_buffer_pram", [false, true, true, true, true, true, true]),
    ("causality_chain", [true, true, true, true, true, true, true]),
    ("iriw", [true, true, true, true, true, true, true]),
    ("wrc", [true, true, true, true, true, true, true]),
    ("two_plus_two_w", [true, true, true, true, true, true, true]),
];

#[test]
fn litmus_by_lattice_matrix_matches_pinned_verdicts() {
    let pts = points();
    let mut actual: Vec<(String, Vec<bool>)> = Vec::new();
    for (name, spec) in corpus() {
        let histories = explored_histories(name, &spec);
        let row: Vec<bool> = pts.iter().map(|&(_, p)| all_pass(&histories, p)).collect();
        println!(
            "{name}: {} distinct histories — {}",
            histories.len(),
            pts.iter()
                .zip(&row)
                .map(|(&(n, _), &v)| format!("{n}={}", if v { "pass" } else { "FAIL" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
        actual.push((name.to_string(), row));
    }

    // Render both tables on mismatch so a flipped cell is diagnosable
    // from the failure message alone.
    let render = |rows: &[(String, Vec<bool>)]| {
        rows.iter()
            .map(|(n, r)| {
                format!(
                    "{n:20} {}",
                    r.iter().map(|&v| if v { " pass" } else { " FAIL" }).collect::<String>()
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let pinned: Vec<(String, Vec<bool>)> =
        PINNED.iter().map(|&(n, r)| (n.to_string(), r.to_vec())).collect();
    assert_eq!(
        actual,
        pinned,
        "conformance matrix flipped\n-- actual --\n{}\n-- pinned --\n{}",
        render(&actual),
        render(&pinned)
    );

    // Lattice monotonicity over the matrix: a history set satisfying a
    // stronger point must satisfy every weaker one. (stronger, weaker)
    // pairs follow the ordering-property lattice.
    let idx = |n: &str| pts.iter().position(|&(p, _)| p == n).unwrap();
    for (name, row) in &actual {
        for &(strong, weak) in &[
            ("sc", "causal"),
            ("sc", "processor"),
            ("causal", "pram"),
            ("causal", "weak"),
            ("processor", "pram"),
            ("pram", "slow"),
        ] {
            assert!(
                !row[idx(strong)] || row[idx(weak)],
                "{name}: satisfies {strong} but not {weak} — lattice order broken"
            );
        }
    }
}

/// Canonical anomaly histories, hand-built so every lattice point's
/// *rejection* behavior is pinned too (the protocol matrix above cannot
/// exercise anomalies the implementation never produces).
fn anomaly_histories() -> Vec<(&'static str, History)> {
    use mc_model::{HistoryBuilder, Loc, ProcId, Value};
    let p = ProcId;
    let int = Value::Int;

    // The causality chain with a stale tail: p2 sees y=2 (which causally
    // depends on x=1) and then reads x=0.
    let stale_chain = {
        let mut b = HistoryBuilder::new(3);
        b.push_write(p(0), Loc(0), int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, int(1));
        b.push_write(p(1), Loc(1), int(2));
        b.push_read(p(2), Loc(1), ReadLabel::Pram, int(2));
        b.push_read(p(2), Loc(0), ReadLabel::Pram, int(0));
        b.build().unwrap()
    };

    // One writer, two locations, observed out of program order: the
    // canonical PRAM (FIFO) violation. Different locations, so the slow
    // point (per-location FIFO only) accepts it.
    let fifo_violation = {
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), int(1));
        b.push_write(p(0), Loc(1), int(1));
        b.push_read(p(1), Loc(1), ReadLabel::Pram, int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, int(0));
        b.build().unwrap()
    };

    // Independent reads of independent writes, split observation: the
    // classic SC violation that every weaker point tolerates.
    let iriw_split = {
        let mut b = HistoryBuilder::new(4);
        b.push_write(p(0), Loc(0), int(1));
        b.push_write(p(1), Loc(1), int(1));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, int(1));
        b.push_read(p(2), Loc(1), ReadLabel::Causal, int(0));
        b.push_read(p(3), Loc(1), ReadLabel::Causal, int(1));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, int(0));
        b.build().unwrap()
    };

    // Two concurrent writes to one location observed in opposite orders:
    // a cache-coherence violation, rejected exactly by the points that
    // demand a per-location write order (processor, sc).
    let write_order_disagreement = {
        let mut b = HistoryBuilder::new(4);
        b.push_write(p(0), Loc(0), int(1));
        b.push_write(p(1), Loc(0), int(2));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, int(1));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, int(2));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, int(2));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, int(1));
        b.build().unwrap()
    };

    vec![
        ("stale_chain", stale_chain),
        ("fifo_violation", fifo_violation),
        ("iriw_split", iriw_split),
        ("write_order_disagreement", write_order_disagreement),
    ]
}

/// The pinned anomaly-history matrix, columns in [`points`] order
/// (sc, causal, processor, pram, weak, slow, mixed).
const PINNED_ANOMALIES: &[(&str, [bool; 7])] = &[
    //                             sc     causal processor pram  weak  slow  mixed
    ("stale_chain", [false, false, true, true, true, true, true]),
    ("fifo_violation", [false, false, false, false, true, true, false]),
    ("iriw_split", [false, true, true, true, true, true, true]),
    ("write_order_disagreement", [false, true, false, true, true, true, true]),
];

#[test]
fn anomaly_histories_by_lattice_matrix_matches_pinned_verdicts() {
    let pts = points();
    let mut actual: Vec<(String, Vec<bool>)> = Vec::new();
    for (name, h) in anomaly_histories() {
        let row: Vec<bool> = pts
            .iter()
            .map(|&(_, point)| {
                let models = ModelAssignment::per_proc(vec![point; h.nprocs()]);
                check_model(&h, &models).is_ok()
            })
            .collect();
        println!(
            "{name}: {}",
            pts.iter()
                .zip(&row)
                .map(|(&(n, _), &v)| format!("{n}={}", if v { "pass" } else { "FAIL" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
        actual.push((name.to_string(), row));
    }
    let pinned: Vec<(String, Vec<bool>)> =
        PINNED_ANOMALIES.iter().map(|&(n, r)| (n.to_string(), r.to_vec())).collect();
    assert_eq!(actual, pinned, "anomaly matrix flipped — see stdout for the recomputed table");
}

/// Runs the protocol *under* a uniform lattice-point assignment and
/// checks every DPOR-explored execution against that point's spec via
/// `Outcome::verify` (which routes through the declarative validator).
fn protocol_satisfies(name: &str, point: ProcModel, spec: ProgSpec) {
    let nprocs = spec.procs.len();
    let spec = spec.models(vec![point; nprocs]);
    let out = explore_with(
        ExploreOptions::new().max_runs(3_000_000),
        || spec.build_system(),
        |o| o.verify().map_err(|e| format!("{e}")),
    )
    .unwrap_or_else(|e| panic!("{name} under {}: {e}", point.name()));
    assert!(out.complete, "{name} under {}: DPOR must exhaust the tree", point.name());
}

#[test]
fn protocol_conforms_to_slow_spec() {
    for (name, spec) in corpus() {
        protocol_satisfies(name, ProcModel::Fixed(ModelSpec::SLOW), spec);
    }
}

#[test]
fn protocol_conforms_to_weak_ordering_spec() {
    for (name, spec) in corpus() {
        protocol_satisfies(name, ProcModel::Fixed(ModelSpec::WEAK_ORDERING), spec);
    }
}

#[test]
fn protocol_conforms_to_processor_spec() {
    for (name, spec) in corpus() {
        protocol_satisfies(name, ProcModel::Fixed(ModelSpec::PROCESSOR), spec);
    }
}

#[test]
fn protocol_conforms_to_legacy_points() {
    for point in [
        ProcModel::Fixed(ModelSpec::PRAM),
        ProcModel::Fixed(ModelSpec::CAUSAL),
        ProcModel::Fixed(ModelSpec::SC),
        ProcModel::ByLabel,
    ] {
        for (name, spec) in corpus() {
            protocol_satisfies(name, point, spec);
        }
    }
}

/// The explored runs above deliver every message after the same zero
/// latency, so a write never overtakes one it causally follows and FIFO
/// broadcast alone looks causal there. With jittered latency it can:
/// process 2's await reads `y` before `x` has reached it, and only the
/// vector substrate's causal gate holds `y` back. A causal process must
/// still never read the stale `x`.
#[test]
fn causal_points_hold_when_a_write_overtakes_its_cause() {
    let jitter = mixed_consistency::LatencyModel {
        base: mixed_consistency::SimTime::from_micros(10),
        per_byte_ns: 0,
        jitter: mixed_consistency::SimTime::from_micros(200),
    };
    let wait = |loc, value| SpecOp::Await { loc: mixed_consistency::Loc(loc), value };
    let spec = ProgSpec::new(ProcModel::CAUSAL)
        .proc(vec![w(0, 1)])
        .proc(vec![wait(0, 1), w(1, 1)])
        .proc(vec![wait(1, 1), rp(0)]);
    for seed in 0..64 {
        let out = spec.build_system().seed(seed).latency(jitter).run().unwrap();
        out.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// One run may mix lattice points: the observer processes run (and are
/// judged) under different points than the writers, subsuming the
/// paper's mixed mode as just another assignment.
#[test]
fn heterogeneous_assignment_explores_and_verifies() {
    let spec = ProgSpec::new(ProcModel::MIXED)
        .models(vec![
            ProcModel::Fixed(ModelSpec::CAUSAL),
            ProcModel::Fixed(ModelSpec::CAUSAL),
            ProcModel::Fixed(ModelSpec::SLOW),
        ])
        .proc(vec![w(0, 1)])
        .proc(vec![rc(0), w(1, 1)])
        .proc(vec![rc(1), rc(0)]);
    let out = explore_with(
        ExploreOptions::new().max_runs(3_000_000),
        || spec.build_system(),
        |o| o.verify().map_err(|e| format!("{e}")),
    )
    .unwrap_or_else(|e| panic!("heterogeneous assignment: {e}"));
    assert!(out.complete, "heterogeneous assignment must exhaust the tree");
}
