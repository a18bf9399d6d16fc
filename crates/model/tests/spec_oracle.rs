//! Oracle agreement: the declarative lattice validator vs the
//! hand-coded checkers and the exact SC search.
//!
//! `check_pram`, `check_causal` and `check_mixed` are now one-line calls
//! to [`mc_model::spec::check_model`] (uniform `PRAM`, uniform `CAUSAL`,
//! `ModelAssignment::mixed`), so the first three properties below hold by
//! construction and pin that wiring; the independent reference for the
//! per-read judgement is `closure_oracle.rs`. What stays a real oracle
//! here: `ModelSpec::SC` through the validator must agree with the exact
//! serialization search, and the lattice must stay monotone on random
//! histories.

use proptest::prelude::*;

use mc_model::spec::check_model;
use mc_model::{
    check, sc, BarrierId, BarrierRound, History, HistoryBuilder, Loc, LockId, LockMode,
    ModelAssignment, ModelSpec, ProcId, ReadLabel, Value,
};

// ------------------------------------------------ random history generation

/// One generated instruction (a trimmed twin of the generator in
/// `properties.rs`: writes with globally unique values, reads that pick
/// among already-written values, write-locked critical sections).
#[derive(Clone, Debug)]
enum GenOp {
    Write(u32),
    Read { loc: u32, pick: u8, causal: bool },
    Cs { lock: u32, body: Vec<GenOp> },
}

fn gen_ops(depth: u32) -> impl Strategy<Value = GenOp> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(GenOp::Write),
        ((0u32..3), any::<u8>(), any::<bool>()).prop_map(|(loc, pick, causal)| GenOp::Read {
            loc,
            pick,
            causal
        }),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        prop_oneof![
            4 => leaf,
            1 => ((0u32..2), proptest::collection::vec(gen_ops(0), 1..3))
                .prop_map(|(lock, body)| GenOp::Cs { lock, body }),
        ]
        .boxed()
    }
}

fn gen_program(
    nprocs: usize,
    max_ops: usize,
) -> impl Strategy<Value = (Vec<Vec<GenOp>>, usize, u64)> {
    (
        proptest::collection::vec(
            proptest::collection::vec(gen_ops(1), 1..=max_ops),
            nprocs..=nprocs,
        ),
        0usize..2,
        any::<u64>(),
    )
}

/// Materializes a program into a well-formed history: processes are
/// interleaved segment-by-segment (critical sections kept atomic),
/// reads pick among values already written to the location (or 0).
fn build_history(progs: &[Vec<GenOp>], barrier_rounds: usize, interleave_seed: u64) -> History {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let nprocs = progs.len();
    let mut b = HistoryBuilder::new(nprocs);
    let mut rng = StdRng::seed_from_u64(interleave_seed);

    let mut segments: Vec<Vec<Vec<GenOp>>> = Vec::new();
    for prog in progs {
        let chunk = prog.len().div_ceil(barrier_rounds + 1).max(1);
        let mut chunks: Vec<Vec<GenOp>> = prog.chunks(chunk).map(|c| c.to_vec()).collect();
        chunks.resize(barrier_rounds + 1, Vec::new());
        segments.push(chunks);
    }

    let mut written: Vec<Vec<i64>> = vec![Vec::new(); 4];
    let mut next_val = 1i64;

    let emit = |b: &mut HistoryBuilder,
                p: ProcId,
                op: &GenOp,
                written: &mut Vec<Vec<i64>>,
                next_val: &mut i64| {
        match op {
            GenOp::Write(loc) => {
                let v = *next_val;
                *next_val += 1;
                written[*loc as usize].push(v);
                b.push_write(p, Loc(*loc), Value::Int(v));
            }
            GenOp::Read { loc, pick, causal } => {
                let pool = &written[*loc as usize];
                let label = if *causal { ReadLabel::Causal } else { ReadLabel::Pram };
                let v = if pool.is_empty() || (*pick as usize).is_multiple_of(pool.len() + 1) {
                    0
                } else {
                    pool[(*pick as usize) % pool.len()]
                };
                b.push_read(p, Loc(*loc), label, Value::Int(v));
            }
            GenOp::Cs { .. } => unreachable!("handled by caller"),
        }
    };

    for round in 0..=barrier_rounds {
        let mut queues: Vec<std::collections::VecDeque<GenOp>> =
            segments.iter().map(|s| s[round].iter().cloned().collect()).collect();
        while queues.iter().any(|q| !q.is_empty()) {
            let p = rng.gen_range(0..nprocs);
            let Some(op) = queues[p].pop_front() else { continue };
            let p_id = ProcId(p as u32);
            match op {
                GenOp::Cs { lock, ref body } => {
                    b.push_lock(p_id, LockId(lock), LockMode::Write);
                    for inner in body {
                        emit(&mut b, p_id, inner, &mut written, &mut next_val);
                    }
                    b.push_unlock(p_id, LockId(lock), LockMode::Write);
                }
                ref plain => emit(&mut b, p_id, plain, &mut written, &mut next_val),
            }
        }
        if round < barrier_rounds {
            for p in 0..nprocs {
                b.push_barrier(ProcId(p as u32), BarrierId(0), BarrierRound(round as u32));
            }
        }
    }
    b.build().expect("generated histories are well-formed")
}

// ------------------------------------------------------- oracle agreement

/// The violating reads of a checker result, as a sorted, comparable
/// rendering (per-read violations only; the declarative validator's
/// global verdicts have no legacy counterpart to compare against and
/// the legacy modes never produce them).
fn violation_keys(r: &Result<check::CheckReport, check::CheckError>) -> Vec<String> {
    match r {
        Ok(_) => Vec::new(),
        Err(check::CheckError::Violations(rep)) => {
            let mut keys: Vec<String> =
                rep.violations.iter().map(|v| format!("{}:{:?}", v.read, v.kind)).collect();
            keys.sort();
            keys
        }
        Err(e) => vec![format!("error: {e}")],
    }
}

fn assert_agrees(
    h: &History,
    legacy: Result<check::CheckReport, check::CheckError>,
    spec: ModelSpec,
    name: &str,
) {
    let models = ModelAssignment::uniform(h.nprocs(), spec);
    let declarative = check_model(h, &models);
    assert_eq!(
        violation_keys(&legacy),
        violation_keys(&declarative),
        "{} disagreement on:\n{}",
        name,
        h.to_pretty_string()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ModelSpec::PRAM` through the declarative validator ≡ the
    /// hand-coded `check_pram`, violation for violation.
    #[test]
    fn pram_spec_agrees_with_hand_coded_checker(
        (progs, rounds, seed) in gen_program(3, 4)
    ) {
        let h = build_history(&progs, rounds, seed);
        assert_agrees(&h, check::check_pram(&h), ModelSpec::PRAM, "PRAM");
    }

    /// `ModelSpec::CAUSAL` ≡ `check_causal`.
    #[test]
    fn causal_spec_agrees_with_hand_coded_checker(
        (progs, rounds, seed) in gen_program(3, 4)
    ) {
        let h = build_history(&progs, rounds, seed);
        assert_agrees(&h, check::check_causal(&h), ModelSpec::CAUSAL, "CAUSAL");
    }

    /// The uniform per-label assignment (Definition 4's mixed mode) ≡
    /// `check_mixed`.
    #[test]
    fn mixed_assignment_agrees_with_hand_coded_checker(
        (progs, rounds, seed) in gen_program(3, 4)
    ) {
        let h = build_history(&progs, rounds, seed);
        let models = ModelAssignment::mixed(h.nprocs());
        let declarative = check_model(&h, &models);
        prop_assert_eq!(
            violation_keys(&check::check_mixed(&h)),
            violation_keys(&declarative),
            "mixed disagreement on:\n{}",
            h.to_pretty_string()
        );
    }

    /// `ModelSpec::SC` ≡ the exact serialization search, on histories
    /// small enough for the search to be conclusive. Pass/fail only:
    /// the SC point reports a single global verdict, not per-read
    /// violations.
    #[test]
    fn sc_spec_agrees_with_serialization_search(
        (progs, rounds, seed) in gen_program(2, 3)
    ) {
        let h = build_history(&progs, rounds, seed);
        if h.len() <= 14 {
            let verdict = sc::check_sequential(&h).unwrap();
            if !matches!(verdict, sc::ScVerdict::Unknown) {
                let models = ModelAssignment::uniform(h.nprocs(), ModelSpec::SC);
                prop_assert_eq!(
                    verdict.is_sc(),
                    check_model(&h, &models).is_ok(),
                    "SC disagreement on:\n{}",
                    h.to_pretty_string()
                );
            }
        }
    }

    /// Lattice monotonicity on random histories: a history passing a
    /// stronger point passes every weaker point (strongest-first order
    /// of [`ModelSpec::ALL`] is only a display order; the comparable
    /// pairs are checked explicitly).
    #[test]
    fn lattice_is_monotone_on_random_histories(
        (progs, rounds, seed) in gen_program(3, 4)
    ) {
        let h = build_history(&progs, rounds, seed);
        let passes = |spec: ModelSpec| {
            check_model(&h, &ModelAssignment::uniform(h.nprocs(), spec)).is_ok()
        };
        let causal = passes(ModelSpec::CAUSAL);
        let pram = passes(ModelSpec::PRAM);
        let slow = passes(ModelSpec::SLOW);
        let weak = passes(ModelSpec::WEAK_ORDERING);
        let processor = passes(ModelSpec::PROCESSOR);
        prop_assert!(!causal || pram, "causal ⊑ pram broken:\n{}", h.to_pretty_string());
        prop_assert!(!causal || weak, "causal ⊑ weak broken:\n{}", h.to_pretty_string());
        prop_assert!(!pram || slow, "pram ⊑ slow broken:\n{}", h.to_pretty_string());
        prop_assert!(!processor || pram, "processor ⊑ pram broken:\n{}", h.to_pretty_string());
    }
}
