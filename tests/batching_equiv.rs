//! The batching-soundness property, tested end to end: batched,
//! coalesced, delta-compressed update propagation must be *observably
//! identical* to the unbatched paths — same final stores, same read
//! values, same checker verdicts — on randomly generated synchronized
//! programs, in every mode, on quiet and on faulty networks.
//!
//! The generated programs are barrier-phase structured so every read is
//! uniquely determined (each location is written in exactly one phase by
//! exactly one process, and read only after the phase barrier): any
//! divergence between the batched and unbatched runs is a protocol bug,
//! not scheduling noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mc_model::OpKind;
use mixed_consistency::{
    BatchPolicy, FaultPlan, History, Loc, LockId, ProcId, ProcModel, ReadLabel, SimTime, System,
    Value,
};

const NPROCS: usize = 3;
const COUNTER: u32 = 1000; // counter location, outside the phase grid

/// One generated instruction of the deterministic-read program family.
#[derive(Clone, Debug)]
enum Instr {
    Write(Loc, i64),
    Read(Loc, ReadLabel),
    Add(Loc, i64),
    Barrier,
}

/// `phase`-local location of process `p`: written by `p` in that phase
/// only, read by others only after the phase barrier.
fn slot(phase: usize, p: usize) -> Loc {
    Loc((phase * NPROCS + p) as u32)
}

/// Generates one barrier-phase program per process. Every read's value
/// is determined by the program alone: reads target the *final*
/// pre-barrier write of a phase-private location, and the shared counter
/// is read only after the last barrier (its value is the sum of all
/// increments).
fn generate(phases: usize, seed: u64) -> Vec<Vec<Instr>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut progs = vec![Vec::new(); NPROCS];
    let mut final_vals = [0i64; NPROCS];
    for phase in 0..phases {
        for (p, prog) in progs.iter_mut().enumerate() {
            for k in 0..rng.gen_range(1..=4) {
                final_vals[p] = (phase as i64 + 1) * 1000 + (p as i64) * 100 + k;
                prog.push(Instr::Write(slot(phase, p), final_vals[p]));
            }
            if rng.gen_bool(0.6) {
                prog.push(Instr::Add(Loc(COUNTER), rng.gen_range(1..=3)));
            }
        }
        for prog in progs.iter_mut() {
            prog.push(Instr::Barrier);
        }
        for prog in progs.iter_mut() {
            for _ in 0..rng.gen_range(0..=3) {
                let q = rng.gen_range(0..NPROCS);
                let label = if rng.gen_bool(0.5) { ReadLabel::Pram } else { ReadLabel::Causal };
                prog.push(Instr::Read(slot(phase, q), label));
            }
        }
    }
    // One more barrier so the counter reads see every increment.
    for prog in progs.iter_mut() {
        prog.push(Instr::Barrier);
        prog.push(Instr::Read(Loc(COUNTER), ReadLabel::Causal));
    }
    progs
}

fn execute(ctx: &mut mixed_consistency::Ctx<'_>, prog: &[Instr]) {
    for instr in prog {
        match instr {
            Instr::Write(loc, v) => {
                ctx.write(*loc, *v);
            }
            Instr::Read(loc, label) => {
                let _ = ctx.read(*loc, *label);
            }
            Instr::Add(loc, d) => {
                ctx.add(*loc, *d);
            }
            Instr::Barrier => ctx.barrier(),
        }
    }
}

/// Everything a run observes, flattened for equality comparison.
#[derive(Debug, PartialEq)]
struct Observation {
    /// Per process, per location: the converged final value.
    stores: Vec<Vec<Value>>,
    /// Per process, in program order: every read/await value.
    reads: Vec<Vec<(Loc, Value)>>,
}

fn read_values(h: &History) -> Vec<Vec<(Loc, Value)>> {
    (0..h.nprocs())
        .map(|p| {
            h.proc_ops(ProcId(p as u32))
                .iter()
                .filter_map(|&id| match &h.op(id).kind {
                    OpKind::Read { loc, value, .. } => Some((*loc, *value)),
                    OpKind::Await { loc, value, .. } => Some((*loc, *value)),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

fn observe(
    mode: ProcModel,
    progs: &[Vec<Instr>],
    seed: u64,
    nlocs: u32,
    batch: Option<BatchPolicy>,
    faults: Option<FaultPlan>,
) -> Observation {
    let mut sys = System::new(NPROCS, mode)
        .seed(seed)
        .record(true)
        .batching(batch)
        .locations(COUNTER as usize + 1);
    if let Some(plan) = faults {
        sys = sys.faults(plan).reliable(true);
    }
    for prog in progs {
        let prog = prog.clone();
        sys.spawn(move |ctx| execute(ctx, &prog));
    }
    let tag = if batch.is_some() { "batched" } else { "unbatched" };
    let outcome = sys.run().unwrap_or_else(|e| panic!("{mode} seed {seed} {tag}: {e}"));
    outcome.verify().unwrap_or_else(|e| panic!("{mode} seed {seed} {tag}: verdict {e}"));
    let h = outcome.history.as_ref().expect("recording enabled");
    let stores = (0..NPROCS)
        .map(|p| {
            (0..nlocs)
                .map(|l| outcome.final_value(ProcId(p as u32), Loc(l)))
                .chain(std::iter::once(outcome.final_value(ProcId(p as u32), Loc(COUNTER))))
                .collect()
        })
        .collect();
    Observation { stores, reads: read_values(h) }
}

#[test]
fn batched_equals_unbatched_in_every_mode() {
    for seed in 0..6u64 {
        let phases = 2 + (seed as usize % 2);
        let progs = generate(phases, seed);
        let nlocs = (phases * NPROCS) as u32;
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
            let unbatched = observe(mode, &progs, seed, nlocs, None, None);
            let batched = observe(mode, &progs, seed, nlocs, Some(BatchPolicy::default()), None);
            assert_eq!(batched, unbatched, "{mode} seed {seed}: batched run diverged");
        }
    }
}

#[test]
fn batched_equals_unbatched_under_random_faults() {
    // Same property on a faulty network with the session layer restoring
    // FIFO exactly-once delivery: drops, duplicates, and reorderings must
    // not open a gap between the batched and unbatched observations.
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 ^ seed);
        let plan = FaultPlan::new()
            .drop_rate(rng.gen_range(0.0..0.12))
            .duplicate_rate(rng.gen_range(0.0..0.12))
            .reorder(SimTime::from_micros(rng.gen_range(1..50)));
        let phases = 2;
        let progs = generate(phases, seed);
        let nlocs = (phases * NPROCS) as u32;
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let unbatched = observe(mode, &progs, seed, nlocs, None, Some(plan.clone()));
            let batched = observe(
                mode,
                &progs,
                seed,
                nlocs,
                Some(BatchPolicy::default()),
                Some(plan.clone()),
            );
            assert_eq!(batched, unbatched, "{mode} seed {seed}: batched run diverged under faults");
        }
    }
}

#[test]
fn batched_locked_increments_preserve_final_stores() {
    // Lock-contended read-increment-write sections: epoch order is
    // schedule-dependent, but the final store is not — it must be the
    // total increment count, batched or not, and both histories must
    // satisfy the mode's consistency definition.
    for mode in [ProcModel::CAUSAL, ProcModel::MIXED] {
        for seed in 0..4u64 {
            let run = |batch: Option<BatchPolicy>| {
                let mut sys = System::new(NPROCS, mode).seed(seed).record(true).batching(batch);
                for _ in 0..NPROCS {
                    sys.spawn(move |ctx| {
                        for _ in 0..4 {
                            ctx.write_lock(LockId(0));
                            let v = ctx.read_causal(Loc(0)).expect_i64();
                            ctx.write(Loc(0), v + 1);
                            ctx.write_unlock(LockId(0));
                        }
                    });
                }
                let outcome = sys.run().unwrap_or_else(|e| panic!("{mode} seed {seed}: {e}"));
                outcome.verify().unwrap_or_else(|e| panic!("{mode} seed {seed}: {e}"));
                outcome.final_value(ProcId(0), Loc(0))
            };
            assert_eq!(run(None), Value::Int((NPROCS * 4) as i64), "{mode} seed {seed}");
            assert_eq!(
                run(Some(BatchPolicy::default())),
                Value::Int((NPROCS * 4) as i64),
                "{mode} seed {seed}: batching lost a locked increment"
            );
        }
    }
}
