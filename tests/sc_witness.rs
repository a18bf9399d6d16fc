//! The write-order witness against the exact search. An SC run records
//! the order in which its server applied each location's writes, and
//! `check_model` judges the run against that order in linear time. On
//! every history the SC protocol produces — seeded random programs with
//! locks, barriers, counters and awaits, and every DPOR-explored run of
//! the litmus corpus — that verdict must equal the serialization search's
//! wherever the search is conclusive. Forged write orders, which the
//! search cannot see, must be rejected.

use std::collections::BTreeSet;
use std::sync::Mutex;

use mc_model::check::{CheckError, GlobalViolation};
use mc_model::sc::{check_sequential, ScVerdict};
use mc_model::spec::check_model;
use mc_model::{History, HistoryBuilder, ModelAssignment, ModelSpec, ProcId, ProcModel, Value};
use mixed_consistency::explore::{explore_with, ExploreOptions};
use mixed_consistency::{BarrierId, Loc, LockId, LockMode, ProgSpec, ReadLabel, SpecOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SC: ProcModel = ProcModel::Fixed(ModelSpec::SC);

/// The same operations without the write order: what the search judges.
fn without_witness(h: &History) -> History {
    let mut b = HistoryBuilder::new(h.nprocs());
    for (_, op) in h.iter() {
        b.push(op.proc, op.kind.clone());
    }
    b.build().expect("the recorded operations are well-formed")
}

/// Judges `h` by its write order and by search, uniformly SC and with
/// every other process SC (the rest PRAM, so the search runs over the
/// projection). Returns whether the uniform search was conclusive.
fn witness_agrees_with_search(h: &History, what: &str) -> bool {
    assert!(h.write_order().is_some(), "{what}: an SC run records its write order");
    let uniform = ModelAssignment::uniform(h.nprocs(), ModelSpec::SC);
    let by_witness = check_model(h, &uniform).is_ok();
    assert!(by_witness, "{what}: not serializable in the server's order\n{}", pretty(h));
    let search = check_sequential(h).expect("acyclic");
    if search != ScVerdict::Unknown {
        assert_eq!(by_witness, search.is_sc(), "{what}: witness and search disagree");
    }

    let pram = ProcModel::Fixed(ModelSpec::PRAM);
    let half = (0..h.nprocs()).map(|p| if p % 2 == 0 { SC } else { pram }).collect();
    let half = ModelAssignment::per_proc(half);
    assert_eq!(
        check_model(h, &half),
        check_model(&without_witness(h), &half),
        "{what}: witness and search disagree on a partial total store order"
    );
    search != ScVerdict::Unknown
}

fn pretty(h: &History) -> String {
    format!("{}write order: {:?}", h.to_pretty_string(), h.write_order())
}

const LOCS: u32 = 4;
const COUNTER: Loc = Loc(LOCS);

fn flag(p: usize) -> Loc {
    Loc(LOCS + 1 + p as u32)
}

/// A deadlock-free random program. Each barrier-separated segment is a
/// random body per process (writes, reads of both labels, counter
/// decrements, write- and read-locked critical sections), then each
/// process raises its flag and awaits the flags of lower-numbered
/// processes and the counter total so far. Every await waits only on
/// body operations and flags of its own segment, which never wait.
fn program(seed: u64) -> ProgSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let nprocs = rng.gen_range(2..=3usize);
    let segments = rng.gen_range(1..=2usize);
    let mut procs: Vec<Vec<SpecOp>> = vec![Vec::new(); nprocs];
    let (mut value, mut decrements) = (0i64, 0i64);
    for seg in 0..segments {
        for ops in &mut procs {
            for _ in 0..rng.gen_range(1..=3) {
                let loc = Loc(rng.gen_range(0..LOCS));
                let label = if rng.gen_bool(0.5) { ReadLabel::Pram } else { ReadLabel::Causal };
                value += 1;
                let lock = LockId(rng.gen_range(0..2));
                match rng.gen_range(0..10) {
                    0..=2 => ops.push(SpecOp::Write { loc, value }),
                    3..=5 => ops.push(SpecOp::Read { loc, label }),
                    6 | 7 => {
                        ops.push(SpecOp::Add { loc: COUNTER, delta: -1 });
                        decrements += 1;
                    }
                    8 => ops.extend([
                        SpecOp::Lock { lock, mode: LockMode::Write },
                        SpecOp::Read { loc, label },
                        SpecOp::Write { loc, value },
                        SpecOp::Unlock { lock, mode: LockMode::Write },
                    ]),
                    _ => ops.extend([
                        SpecOp::Lock { lock, mode: LockMode::Read },
                        SpecOp::Read { loc, label },
                        SpecOp::Unlock { lock, mode: LockMode::Read },
                    ]),
                }
            }
        }
        let raised = seg as i64 + 1;
        for (p, ops) in procs.iter_mut().enumerate() {
            ops.push(SpecOp::Write { loc: flag(p), value: raised });
            ops.extend((0..p).map(|q| SpecOp::Await { loc: flag(q), value: raised }));
            if rng.gen_bool(0.5) {
                ops.push(SpecOp::Await { loc: COUNTER, value: -decrements });
            }
            if seg + 1 < segments {
                ops.push(SpecOp::Barrier { barrier: BarrierId(0) });
            }
        }
    }
    procs.into_iter().fold(ProgSpec::new(ProcModel::SC), ProgSpec::proc)
}

#[test]
fn random_sc_programs_judged_by_witness_as_by_search() {
    let (mut conclusive, mut total) = (0, 0);
    for seed in 0..40u64 {
        let spec = program(seed);
        for schedule in 0..3u64 {
            let outcome = spec.build_system().seed(schedule).run().expect("the program runs");
            let h = outcome.history.expect("recording is on");
            let what = format!("seed {seed} schedule {schedule}");
            conclusive += usize::from(witness_agrees_with_search(&h, &what));
            total += 1;
        }
    }
    println!("{conclusive} of {total} searches conclusive");
    assert!(conclusive * 10 >= total * 9, "only {conclusive} of {total} searches were conclusive");
}

fn w(loc: u32, value: i64) -> SpecOp {
    SpecOp::Write { loc: Loc(loc), value }
}

fn r(loc: u32) -> SpecOp {
    SpecOp::Read { loc: Loc(loc), label: ReadLabel::Causal }
}

/// The litmus corpus of the lattice matrix, run on the SC protocol.
fn litmus() -> Vec<(&'static str, ProgSpec)> {
    let spec = |procs: Vec<Vec<SpecOp>>| {
        let n = procs.len();
        procs.into_iter().fold(ProgSpec::new(ProcModel::MIXED), ProgSpec::proc).models(vec![SC; n])
    };
    vec![
        ("store_buffer", spec(vec![vec![w(0, 1), r(1)], vec![w(1, 1), r(0)]])),
        ("causality_chain", spec(vec![vec![w(0, 1)], vec![r(0), w(1, 2)], vec![r(1), r(0)]])),
        ("iriw", spec(vec![vec![w(0, 1)], vec![w(1, 1)], vec![r(0), r(1)], vec![r(1), r(0)]])),
        ("wrc", spec(vec![vec![w(0, 1)], vec![r(0), w(1, 1)], vec![r(1), r(0)]])),
        (
            "two_plus_two_w",
            spec(vec![vec![w(0, 1), w(1, 2)], vec![w(1, 1), w(0, 2)], vec![r(0), r(0)]]),
        ),
    ]
}

#[test]
fn litmus_sc_cells_judged_by_witness_as_by_search() {
    for (name, spec) in litmus() {
        // Runs that differ only in the write order share a signature.
        let seen: Mutex<BTreeSet<(u64, String)>> = Mutex::default();
        let out = explore_with(
            ExploreOptions::new().max_runs(3_000_000),
            || spec.build_system(),
            |o| {
                let h = o.history.as_ref().expect("recording is on");
                let key = (h.signature(), format!("{:?}", h.write_order()));
                if seen.lock().unwrap().insert(key) {
                    assert!(witness_agrees_with_search(h, name), "{name}: search inconclusive");
                }
                Ok(())
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.complete, "{name}: DPOR must exhaust the tree");
        assert!(!seen.into_inner().unwrap().is_empty(), "{name}: nothing explored");
    }
}

/// `h` passes the search (and so `check_model` without a write order)
/// but `check_model` rejects it against the forged order.
fn forged_order_is_rejected(h: &History) {
    assert!(check_sequential(h).unwrap().is_sc(), "some serialization exists");
    let sc = ModelAssignment::uniform(h.nprocs(), ModelSpec::SC);
    check_model(&without_witness(h), &sc).expect("the search accepts");
    let Err(CheckError::Violations(report)) = check_model(h, &sc) else {
        panic!("the forged write order was accepted\n{}", pretty(h));
    };
    assert_eq!(report.global, [GlobalViolation::NotSerializable]);
}

#[test]
fn writes_applied_out_of_program_order_are_rejected() {
    // p0: w(x)1; w(x)2, read by nobody; the server applied w2 first.
    let mut b = HistoryBuilder::new(1);
    let (_, w1) = b.push_write(ProcId(0), Loc(0), Value::Int(1));
    let (_, w2) = b.push_write(ProcId(0), Loc(0), Value::Int(2));
    b.set_write_order(Loc(0), vec![w2, w1]);
    forged_order_is_rejected(&b.build().unwrap());
}

#[test]
fn a_read_answered_with_an_overwritten_value_is_rejected() {
    // p0: w(x)1; r(x)2. p1: w(x)2. The server applied w2 before w1, so
    // by the time p0 read, w2 was overwritten: w1 ->po r ->fr w1. The
    // search accepts w1, w2, r.
    let mut b = HistoryBuilder::new(2);
    let (_, w1) = b.push_write(ProcId(0), Loc(0), Value::Int(1));
    let (_, w2) = b.push_write(ProcId(1), Loc(0), Value::Int(2));
    b.push_read_from(ProcId(0), Loc(0), ReadLabel::Causal, Value::Int(2), w2);
    b.set_write_order(Loc(0), vec![w2, w1]);
    forged_order_is_rejected(&b.build().unwrap());
}
