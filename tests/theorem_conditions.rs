//! Section 4 end-to-end: programs satisfying the paper's sufficient
//! conditions (Theorem 1, Corollaries 1 and 2) must behave sequentially
//! consistently on the weak protocols — verified on *recorded executions*
//! with the exact SC checker where feasible and the program-discipline
//! checkers everywhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mixed_consistency::model::programs;
use mixed_consistency::{
    check, commute, sc, Loc, LockId, ProcId, ProcModel, ReadLabel, System, Value,
};

/// An entry-consistent random program: every location is guarded by a
/// dedicated lock; reads take read or write locks, writes take write
/// locks. By Corollary 1, causal reads make executions SC.
fn entry_consistent_system(seed: u64, nprocs: usize, ops: usize) -> System {
    let mut sys = System::new(nprocs, ProcModel::CAUSAL).seed(seed).record(true);
    for p in 0..nprocs {
        sys.spawn(move |ctx| {
            let mut rng = StdRng::seed_from_u64(seed * 31 + p as u64);
            let mut val = (p as i64 + 1) * 1000;
            for _ in 0..ops {
                let loc = Loc(rng.gen_range(0..3u32));
                let lock = LockId(loc.0); // lock i guards location i
                if rng.gen_bool(0.5) {
                    ctx.write_lock(lock);
                    val += 1;
                    ctx.write(loc, val);
                    ctx.write_unlock(lock);
                } else {
                    ctx.read_lock(lock);
                    let _ = ctx.read_causal(loc);
                    ctx.read_unlock(lock);
                }
            }
        });
    }
    sys
}

#[test]
fn corollary_1_entry_consistent_executions_are_sc() {
    for seed in 0..6 {
        let h = entry_consistent_system(seed, 2, 3).run().unwrap().history.unwrap();
        // The discipline holds…
        let mapping = programs::infer_lock_mapping(&h)
            .unwrap()
            .expect("discipline implies an inferable mapping");
        programs::check_entry_consistent(&h, &mapping).unwrap();
        // …reads are causal…
        check::check_causal(&h).unwrap();
        // …and the execution is exactly sequentially consistent.
        match sc::check_sequential_with_budget(&h, 2_000_000).unwrap() {
            sc::ScVerdict::SequentiallyConsistent(_) => {}
            sc::ScVerdict::Unknown => {} // inconclusive on a big history
            sc::ScVerdict::NotSequentiallyConsistent => {
                panic!("seed {seed}: Corollary 1 violated\n{}", h.to_pretty_string())
            }
        }
    }
}

#[test]
fn corollary_1_theorem_1_premises_hold() {
    // Larger runs where exact SC search is infeasible: Theorem 1's
    // polynomial premises certify sequential consistency instead.
    for seed in 0..4 {
        let h = entry_consistent_system(seed, 3, 6).run().unwrap().history.unwrap();
        let outcome = commute::check_theorem1(&h).unwrap();
        assert!(
            outcome.applies(),
            "seed {seed}: Theorem 1 premises fail on an entry-consistent run"
        );
    }
}

#[test]
fn corollary_2_phase_programs_are_sc() {
    // A barrier phase program on PRAM memory: write-own / read-others per
    // phase.
    for seed in 0..6 {
        let mut sys = System::new(3, ProcModel::PRAM).seed(seed).record(true);
        for p in 0..3u32 {
            sys.spawn(move |ctx| {
                for round in 0..3i64 {
                    ctx.write(Loc(p), round * 10 + p as i64);
                    ctx.barrier();
                    let left = ctx.read_pram(Loc((p + 1) % 3));
                    assert_eq!(
                        left,
                        Value::Int(round * 10 + ((p as i64 + 1) % 3)),
                        "stale phase read"
                    );
                    ctx.barrier();
                }
            });
        }
        let h = sys.run().unwrap().history.unwrap();
        programs::check_pram_consistent_program(&h).unwrap();
        check::check_pram(&h).unwrap();
        if let sc::ScVerdict::NotSequentiallyConsistent =
            sc::check_sequential_with_budget(&h, 2_000_000).unwrap()
        {
            panic!("seed {seed}: Corollary 2 violated")
        }
    }
}

#[test]
fn undisciplined_program_fails_the_condition_checkers() {
    // Racy writes without locks or barriers: the discipline checkers must
    // reject (soundness of the negative direction).
    let mut sys = System::new(2, ProcModel::CAUSAL).seed(1).record(true);
    for p in 0..2u32 {
        sys.spawn(move |ctx| {
            ctx.write(Loc(0), p as i64 + 1);
            let _ = ctx.read_causal(Loc(0));
        });
    }
    let h = sys.run().unwrap().history.unwrap();
    assert_eq!(programs::infer_lock_mapping(&h).unwrap(), None);
    assert!(programs::check_pram_consistent_program(&h).is_err());
    // Theorem 1 must not apply: the concurrent conflicting writes fail
    // Definition 5.
    assert!(!commute::check_theorem1(&h).unwrap().applies());
}

#[test]
fn final_states_match_a_sequential_execution() {
    // Corollary 1's practical upshot: the final memory state of a
    // disciplined run equals the state of the witness serialization.
    for seed in 0..4 {
        let outcome = entry_consistent_system(seed, 2, 3).run().unwrap();
        let h = outcome.history.as_ref().unwrap();
        if let sc::ScVerdict::SequentiallyConsistent(order) =
            sc::check_sequential_with_budget(h, 2_000_000).unwrap()
        {
            // Replay the witness sequentially and compare final values.
            let mut mem = std::collections::HashMap::new();
            for op in &order {
                if let mixed_consistency::OpKind::Write { loc, value, .. } = &h.op(*op).kind {
                    mem.insert(*loc, *value);
                }
            }
            for (loc, v) in mem {
                assert_eq!(
                    outcome.final_value(ProcId(0), loc),
                    v,
                    "seed {seed}: {loc} diverged from the serialization"
                );
            }
        }
    }
}

#[test]
fn mixed_labels_in_one_program_judged_per_label() {
    // A program mixing both labels: Definition 4 judges each read by its
    // own label; the stricter all-causal judgment may fail or pass
    // depending on schedule, but the mixed judgment must always pass on
    // the mixed protocol.
    for seed in 0..6 {
        let mut sys = System::new(3, ProcModel::MIXED).seed(seed).record(true);
        for p in 0..3u32 {
            sys.spawn(move |ctx| {
                ctx.write(Loc(p), p as i64 + 10);
                let _ = ctx.read_pram(Loc((p + 1) % 3));
                let _ = ctx.read_causal(Loc((p + 2) % 3));
                ctx.write(Loc(p), p as i64 + 20);
                let _ = ctx.read(Loc(p), ReadLabel::Pram);
            });
        }
        let h = sys.run().unwrap().history.unwrap();
        check::check_mixed(&h).unwrap();
    }
}
