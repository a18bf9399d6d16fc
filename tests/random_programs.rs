//! Cross-crate property harness: randomly generated programs, executed on
//! every protocol mode under many seeds, must always yield histories
//! satisfying that protocol's consistency definition.
//!
//! This is the central soundness loop of the repository: the protocols
//! (`mc-proto`) are judged by the independent formal checkers
//! (`mc-model`) on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mixed_consistency::{
    check, sc, FaultPlan, Loc, LockId, LockPropagation, NodeId, ProcModel, ReadLabel, SimTime,
    System, Value,
};

/// One generated instruction.
#[derive(Clone, Debug)]
enum Instr {
    Write(Loc, i64),
    Read(Loc, ReadLabel),
    Add(Loc),
    Cs { lock: LockId, body: Vec<Instr> },
    Barrier,
}

/// Generates a deadlock-free random program: balanced critical sections,
/// barrier rounds aligned across processes, unique write values.
fn generate(nprocs: usize, ops_per_proc: usize, seed: u64) -> Vec<Vec<Instr>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nlocs = 4u32;
    let counter_loc = Loc(nlocs); // dedicated counter location
    let nlocks = 2u32;
    let barrier_rounds = rng.gen_range(0..3usize);

    let mut procs = Vec::new();
    for p in 0..nprocs {
        let mut prog = Vec::new();
        let mut val = (p as i64 + 1) * 100_000;
        for seg in 0..=barrier_rounds {
            for _ in 0..ops_per_proc / (barrier_rounds + 1) {
                let roll = rng.gen_range(0..100);
                let loc = Loc(rng.gen_range(0..nlocs));
                let label = if rng.gen_bool(0.5) { ReadLabel::Pram } else { ReadLabel::Causal };
                if roll < 35 {
                    val += 1;
                    prog.push(Instr::Write(loc, val));
                } else if roll < 70 {
                    prog.push(Instr::Read(loc, label));
                } else if roll < 80 {
                    prog.push(Instr::Add(counter_loc));
                } else {
                    // A small critical section.
                    let lock = LockId(rng.gen_range(0..nlocks));
                    let mut body = Vec::new();
                    for _ in 0..rng.gen_range(1..=3) {
                        if rng.gen_bool(0.5) {
                            val += 1;
                            body.push(Instr::Write(loc, val));
                        } else {
                            body.push(Instr::Read(loc, label));
                        }
                    }
                    prog.push(Instr::Cs { lock, body });
                }
            }
            if seg < barrier_rounds {
                prog.push(Instr::Barrier);
            }
        }
        procs.push(prog);
    }
    procs
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
            Instr::Add(loc) => {
                ctx.add(*loc, -1i64);
            }
            Instr::Cs { lock, body } => {
                ctx.write_lock(*lock);
                for i in body {
                    execute(ctx, std::slice::from_ref(i));
                }
                ctx.write_unlock(*lock);
            }
            Instr::Barrier => ctx.barrier(),
        }
    }
}

fn run_and_record(
    mode: ProcModel,
    prop: LockPropagation,
    progs: &[Vec<Instr>],
    seed: u64,
) -> mixed_consistency::History {
    let mut sys = System::new(progs.len(), mode).lock_propagation(prop).seed(seed).record(true);
    for prog in progs {
        let prog = prog.clone();
        sys.spawn(move |ctx| execute(ctx, &prog));
    }
    sys.run()
        .unwrap_or_else(|e| panic!("{mode}/{prop} seed {seed}: {e}"))
        .history
        .expect("recording enabled")
}

#[test]
fn pram_protocol_satisfies_pram_reads() {
    for seed in 0..12 {
        let progs = generate(3, 10, seed);
        for prop in LockPropagation::ALL {
            let h = run_and_record(ProcModel::PRAM, prop, &progs, seed);
            if let Err(e) = check::check_pram(&h) {
                panic!("seed {seed} {prop}: {e}\n{}", h.to_pretty_string());
            }
        }
    }
}

#[test]
fn causal_protocol_satisfies_causal_reads() {
    for seed in 0..12 {
        let progs = generate(3, 10, seed);
        for prop in [LockPropagation::Eager, LockPropagation::Lazy] {
            let h = run_and_record(ProcModel::CAUSAL, prop, &progs, seed);
            if let Err(e) = check::check_causal(&h) {
                panic!("seed {seed} {prop}: {e}\n{}", h.to_pretty_string());
            }
        }
    }
}

#[test]
fn mixed_protocol_satisfies_definition_4() {
    for seed in 0..12 {
        let progs = generate(4, 10, seed);
        for prop in [LockPropagation::Eager, LockPropagation::Lazy] {
            let h = run_and_record(ProcModel::MIXED, prop, &progs, seed);
            if let Err(e) = check::check_mixed(&h) {
                panic!("seed {seed} {prop}: {e}\n{}", h.to_pretty_string());
            }
        }
    }
}

#[test]
fn mixed_demand_driven_satisfies_pram_labels() {
    // Demand-driven propagation implements the PRAM side of lock
    // synchronization exactly; causal labels may exceed what it ships, so
    // judge all reads as PRAM reads here (Definition 3 must still hold).
    for seed in 0..12 {
        let progs = generate(3, 10, seed);
        let h = run_and_record(ProcModel::MIXED, LockPropagation::DemandDriven, &progs, seed);
        if let Err(e) = check::check_pram(&h) {
            panic!("seed {seed}: {e}\n{}", h.to_pretty_string());
        }
    }
}

#[test]
fn causal_histories_are_also_pram() {
    // ;i,P ⊆ ;i,C, so every causally consistent history is PRAM
    // consistent — checked on real executions.
    for seed in 0..8 {
        let progs = generate(3, 8, seed);
        let h = run_and_record(ProcModel::CAUSAL, LockPropagation::Lazy, &progs, seed);
        check::check_causal(&h).expect("causal protocol is causal");
        check::check_pram(&h).expect("causal implies PRAM");
    }
}

#[test]
fn sc_protocol_is_sequentially_consistent_on_small_runs() {
    for seed in 0..8 {
        // Tiny programs: the exact SC search is exponential.
        let progs = generate(2, 4, seed);
        let h = run_and_record(ProcModel::SC, LockPropagation::Lazy, &progs, seed);
        match sc::check_sequential_with_budget(&h, 4_000_000).expect("acyclic") {
            sc::ScVerdict::SequentiallyConsistent(order) => {
                // Double-check the witness replays.
                let causality = mixed_consistency::model::Causality::new(&h).unwrap();
                sc::replay_serialization(&h, &causality, &order).unwrap();
            }
            sc::ScVerdict::Unknown => {} // budget exhausted: inconclusive
            sc::ScVerdict::NotSequentiallyConsistent => {
                panic!(
                    "seed {seed}: SC protocol produced non-SC history\n{}",
                    h.to_pretty_string()
                );
            }
        }
        // SC histories satisfy the weaker definitions too.
        check::check_causal(&h).expect("SC implies causal");
    }
}

#[test]
fn injected_reordering_is_caught_on_pram() {
    // At least one seed must produce a detectable violation; causal mode
    // must mask every one of them.
    let mut caught = false;
    for seed in 0..15 {
        let mut sys = System::new(2, ProcModel::PRAM)
            .seed(seed)
            .record(true)
            .latency(mixed_consistency::LatencyModel {
                base: mixed_consistency::SimTime::from_micros(1),
                per_byte_ns: 0,
                jitter: mixed_consistency::SimTime::from_micros(40),
            })
            .faults(FaultPlan::new().reorder(SimTime::from_micros(40)));
        sys.spawn(|ctx| {
            for v in 1..=12i64 {
                ctx.write(Loc(0), v);
            }
            ctx.write(Loc(1), 1);
        });
        sys.spawn(|ctx| loop {
            let _ = ctx.read_pram(Loc(0));
            if ctx.read_pram(Loc(1)) == Value::Int(1) {
                break;
            }
        });
        let h = sys.run().unwrap().history.unwrap();
        if check::check_pram(&h).is_err() {
            caught = true;
            break;
        }
    }
    assert!(caught, "reordering injection never produced a detectable violation");
}

/// One persisted regression case for the random-fault property: the
/// generator seed, the exact fault plan, and (since v2) the optional
/// per-process lattice assignment that once produced a failure.
/// Stored as a small `key = value` text file under `tests/corpus/` so
/// every future run replays it before trying fresh random seeds.
#[derive(Clone, Debug, PartialEq)]
struct CorpusEntry {
    seed: u64,
    drop_rate: f64,
    duplicate_rate: f64,
    reorder_us: u64,
    /// `(victim node, from µs, until µs)` of a timed partition, if any.
    partition: Option<(u32, u64, u64)>,
    /// Per-process lattice points (`ProcModel` names, one per process);
    /// `None` replays the legacy mixed-mode judgment.
    models: Option<Vec<mc_model::ProcModel>>,
}

impl CorpusEntry {
    fn to_text(&self) -> String {
        let mut s = String::from("# mixed-consistency regression seed v2\n");
        s.push_str(&format!("seed = {}\n", self.seed));
        s.push_str(&format!("drop_rate = {}\n", self.drop_rate));
        s.push_str(&format!("duplicate_rate = {}\n", self.duplicate_rate));
        s.push_str(&format!("reorder_us = {}\n", self.reorder_us));
        if let Some((victim, from, until)) = self.partition {
            s.push_str(&format!("partition = {victim} {from} {until}\n"));
        }
        if let Some(models) = &self.models {
            let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
            s.push_str(&format!("models = {}\n", names.join(" ")));
        }
        s
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut entry = CorpusEntry {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_us: 0,
            partition: None,
            models: None,
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) =
                line.split_once('=').ok_or_else(|| format!("bad corpus line: {line}"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |e: &dyn std::fmt::Display| format!("bad {key} value {value:?}: {e}");
            match key {
                "seed" => entry.seed = value.parse().map_err(|e| bad(&e))?,
                "drop_rate" => entry.drop_rate = value.parse().map_err(|e| bad(&e))?,
                "duplicate_rate" => entry.duplicate_rate = value.parse().map_err(|e| bad(&e))?,
                "reorder_us" => entry.reorder_us = value.parse().map_err(|e| bad(&e))?,
                "partition" => {
                    let mut parts = value.split_whitespace();
                    let mut next = || {
                        parts
                            .next()
                            .ok_or_else(|| format!("partition needs 3 fields: {value:?}"))?
                            .parse::<u64>()
                            .map_err(|e| bad(&e))
                    };
                    entry.partition = Some((next()? as u32, next()?, next()?));
                }
                "models" => {
                    let models: Option<Vec<mc_model::ProcModel>> =
                        value.split_whitespace().map(mc_model::ProcModel::named).collect();
                    let models =
                        models.ok_or_else(|| format!("unknown model name in: {value:?}"))?;
                    if models.is_empty() {
                        return Err("models key needs at least one name".to_string());
                    }
                    entry.models = Some(models);
                }
                _ => return Err(format!("unknown corpus key: {key}")),
            }
        }
        Ok(entry)
    }

    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new()
            .drop_rate(self.drop_rate)
            .duplicate_rate(self.duplicate_rate)
            .reorder(SimTime::from_micros(self.reorder_us));
        if let Some((victim, from, until)) = self.partition {
            let others: Vec<NodeId> = (0..4u32).filter(|&n| n != victim).map(NodeId).collect();
            plan = plan.partition(
                vec![NodeId(victim)],
                others,
                SimTime::from_micros(from),
                SimTime::from_micros(until),
            );
        }
        plan
    }
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Runs one random-fault case end to end; `Err` is the verdict a
/// corpus entry exists to guard against. An entry carrying a lattice
/// assignment runs (and is judged) under exactly those per-process
/// models; an entry without one replays the legacy mixed-mode judgment.
fn fault_case(entry: &CorpusEntry) -> Result<(), String> {
    let progs = generate(3, 8, entry.seed);
    let models = match &entry.models {
        Some(models) if models.len() != progs.len() => {
            return Err(format!(
                "models names {} processes but the program has {}",
                models.len(),
                progs.len()
            ));
        }
        Some(models) => mc_model::ModelAssignment::per_proc(models.clone()),
        None => mc_model::ModelAssignment::mixed(progs.len()),
    };
    let mut sys = System::new(progs.len(), models)
        .seed(entry.seed)
        .record(true)
        .faults(entry.plan())
        .reliable(true);
    for prog in &progs {
        let prog = prog.clone();
        sys.spawn(move |ctx| execute(ctx, &prog));
    }
    let outcome = sys.run().map_err(|e| format!("run failed: {e}"))?;
    let h = outcome.history.expect("recording enabled");
    match &entry.models {
        Some(models) => {
            let assignment = mc_model::ModelAssignment::per_proc(models.clone());
            mc_model::spec::check_model(&h, &assignment).map_err(|e| {
                format!("faults leaked through the session layer: {e}\n{}", h.to_pretty_string())
            })?;
        }
        None => {
            check::check_mixed(&h).map_err(|e| {
                format!("faults leaked through the session layer: {e}\n{}", h.to_pretty_string())
            })?;
        }
    }
    Ok(())
}

/// Replays every persisted regression case before anything random runs.
/// Lattice-parameterized entries (those carrying a `models` line) replay
/// first: a verdict pinned at a specific lattice point is the sharper
/// regression, so it should be the first thing a drifted checker or
/// protocol trips over.
fn replay_corpus() {
    let dir = corpus_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else { return };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    let mut cases: Vec<(std::path::PathBuf, CorpusEntry)> = paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let entry =
                CorpusEntry::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, entry)
        })
        .collect();
    cases.sort_by_key(|(_, entry)| entry.models.is_none());
    for (path, entry) in cases {
        if let Err(e) = fault_case(&entry) {
            panic!("corpus regression {}: seed {}: {e}", path.display(), entry.seed);
        }
    }
}

#[test]
fn random_programs_under_random_faults_with_session_stay_consistent() {
    // The robustness property: random programs on a randomly faulty
    // network (loss, duplication, reordering, sometimes a timed
    // partition) with the session layer on must always terminate and
    // always yield mixed-consistent histories — the session restores
    // exactly the channel assumptions the protocols were built on.
    //
    // Persisted regressions replay first; a fresh failure persists its
    // (seed, fault-plan) to `tests/corpus/` before panicking, so the
    // exact case stays pinned even after the random generator drifts.
    replay_corpus();
    // Lattice points a random case may pin a process to. SC is excluded:
    // a total-store-order point changes the protocol itself (and must be
    // uniform), so it is exercised by the dedicated litmus matrix, not
    // mixed freely here.
    let model_pool: [mc_model::ProcModel; 6] = [
        mc_model::ProcModel::Fixed(mc_model::ModelSpec::CAUSAL),
        mc_model::ProcModel::Fixed(mc_model::ModelSpec::PROCESSOR),
        mc_model::ProcModel::Fixed(mc_model::ModelSpec::PRAM),
        mc_model::ProcModel::Fixed(mc_model::ModelSpec::WEAK_ORDERING),
        mc_model::ProcModel::Fixed(mc_model::ModelSpec::SLOW),
        mc_model::ProcModel::ByLabel,
    ];
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xFA_0175 ^ seed);
        let mut entry = CorpusEntry {
            seed,
            drop_rate: rng.gen_range(0.0..0.15),
            duplicate_rate: rng.gen_range(0.0..0.15),
            reorder_us: rng.gen_range(1..60),
            partition: None,
            models: None,
        };
        if rng.gen_bool(0.5) {
            // Cut one replica off from everyone (manager node 3
            // included) for a while.
            let victim = rng.gen_range(0..3u32);
            let from = rng.gen_range(0..200u64);
            entry.partition = Some((victim, from, from + rng.gen_range(50..300u64)));
        }
        if rng.gen_bool(0.5) {
            // Pin each process to a random lattice point: the run is
            // then judged against exactly that heterogeneous
            // assignment, and a failure persists the full
            // (seed, fault plan, models) triple.
            entry.models =
                Some((0..3).map(|_| model_pool[rng.gen_range(0..model_pool.len())]).collect());
        }
        if let Err(e) = fault_case(&entry) {
            let dir = corpus_dir();
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join(format!("seed-{seed}.txt"));
            let _ = std::fs::write(&path, entry.to_text());
            panic!("seed {seed}: {e}\n(persisted to {})", path.display());
        }
    }
}

#[test]
fn corpus_entries_round_trip() {
    let with = CorpusEntry {
        seed: 7,
        drop_rate: 0.125,
        duplicate_rate: 0.0625,
        reorder_us: 17,
        partition: Some((2, 50, 217)),
        models: None,
    };
    let with_models = CorpusEntry {
        models: Some(vec![
            mc_model::ProcModel::Fixed(mc_model::ModelSpec::CAUSAL),
            mc_model::ProcModel::ByLabel,
            mc_model::ProcModel::Fixed(mc_model::ModelSpec::SLOW),
        ]),
        ..with.clone()
    };
    let without = CorpusEntry { partition: None, ..with.clone() };
    for entry in [with, with_models, without] {
        assert_eq!(CorpusEntry::parse(&entry.to_text()).unwrap(), entry);
    }
    assert!(CorpusEntry::parse("seed = x").is_err());
    assert!(CorpusEntry::parse("mystery = 3").is_err());
    assert!(CorpusEntry::parse("models = causal banana").is_err());
    assert!(CorpusEntry::parse("models = ").is_err());
}

#[test]
fn deterministic_replay_across_identical_seeds() {
    let progs = generate(3, 12, 99);
    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
        let run = |seed| {
            let mut sys = System::new(3, mode).seed(seed);
            for prog in &progs {
                let prog = prog.clone();
                sys.spawn(move |ctx| execute(ctx, &prog));
            }
            let m = sys.run().unwrap().metrics;
            (m.finish_time, m.events, m.messages, m.bytes)
        };
        assert_eq!(run(4), run(4), "{mode}");
    }
}
