//! Sharded-vs-full litmus conformance: interest-based partial
//! replication is a *routing* optimization, so the observable outcome
//! set of every litmus program must be exactly the outcome set of full
//! replication — under DPOR exploration, under heterogeneous lattice
//! assignments, under seeded network faults, and under explored
//! crash-recovery of a durable writer.
//!
//! The programs place their four locations on four *different* shards
//! (`loc % 4`), so every causal edge that matters crosses a shard
//! boundary and rides the sparse `(shard, proc, seq)` dependency
//! triples rather than a single whole-cluster vector clock.

use std::collections::BTreeSet;
use std::sync::Mutex;

use mc_model::{ModelSpec, ProcModel};
use mixed_consistency::explore::{explore_with, ExploreOptions, ExploreOutcome};
use mixed_consistency::{
    FaultPlan, NodeId, OpKind, ProgSpec, ReadLabel, ShardConfig, SimConfig, SimTime, SpecOp,
    System, Value,
};

const NSHARDS: usize = 4;

fn w(loc: u32, value: i64) -> SpecOp {
    SpecOp::Write { loc: mixed_consistency::Loc(loc), value }
}

fn rc(loc: u32) -> SpecOp {
    SpecOp::Read { loc: mixed_consistency::Loc(loc), label: ReadLabel::Causal }
}

fn rp(loc: u32) -> SpecOp {
    SpecOp::Read { loc: mixed_consistency::Loc(loc), label: ReadLabel::Pram }
}

/// Dekker's store buffer on shards 2 and 3.
fn store_buffer() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED).proc(vec![w(2, 1), rc(3)]).proc(vec![w(3, 1), rc(2)])
}

/// Independent reads of independent writes, the writes on shards 0
/// and 2.
fn iriw() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1)])
        .proc(vec![w(2, 1)])
        .proc(vec![rc(0), rc(2)])
        .proc(vec![rc(2), rc(0)])
}

/// Write-to-read causality across shards 1 and 3, PRAM tail reads.
fn wrc() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(1, 1)])
        .proc(vec![rc(1), w(3, 1)])
        .proc(vec![rp(3), rp(1)])
}

/// Two writers with opposite program orders on shards 0 and 1.
fn two_plus_two_w() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1), w(1, 2)])
        .proc(vec![w(1, 1), w(0, 2)])
        .proc(vec![rc(0), rc(0)])
}

fn corpus() -> Vec<(&'static str, ProgSpec)> {
    vec![
        ("store_buffer", store_buffer()),
        ("iriw", iriw()),
        ("wrc", wrc()),
        ("two_plus_two_w", two_plus_two_w()),
    ]
}

/// Explores `build` and returns the outcome plus the set of distinct
/// read-observation vectors in canonical per-process program order
/// (interleaving-insensitive, so naive/DPOR/sharded trees can be
/// compared). Every execution must pass [`mixed_consistency::Outcome::verify`],
/// which judges each shard's history projection independently when
/// sharding is on.
fn outcomes(
    options: ExploreOptions,
    build: impl Fn() -> System + Send + Sync,
) -> (ExploreOutcome, BTreeSet<Vec<i64>>) {
    let seen = Mutex::new(BTreeSet::new());
    let out = explore_with(options, build, |o| {
        o.verify().map_err(|e| e.to_string())?;
        let h = o.history.as_ref().expect("recording enabled");
        let mut reads: Vec<(u32, i64)> = h
            .iter()
            .filter_map(|(_, op)| match op.kind {
                OpKind::Read { value: Value::Int(v), .. } => Some((op.proc.0, v)),
                _ => None,
            })
            .collect();
        reads.sort_by_key(|&(p, _)| p);
        seen.lock().unwrap().insert(reads.into_iter().map(|(_, v)| v).collect::<Vec<i64>>());
        Ok(())
    })
    .unwrap_or_else(|e| panic!("{e}"));
    (out, seen.into_inner().unwrap())
}

fn opts() -> ExploreOptions {
    ExploreOptions::new().max_runs(3_000_000)
}

/// The tentpole equivalence: for every litmus program, DPOR outcome
/// sets agree between unsharded, footprint-interest sharded, and
/// full-interest sharded systems.
#[test]
fn litmus_outcome_sets_identical_sharded_vs_full() {
    for (name, spec) in corpus() {
        let (base, base_set) = outcomes(opts(), || spec.build_system());
        assert!(base.complete, "{name}: unsharded DPOR must exhaust the tree");
        assert!(!base_set.is_empty(), "{name}: litmus program must produce reads");

        let footprint = spec.clone().sharded(NSHARDS);
        let (fp, fp_set) = outcomes(opts(), || footprint.build_system());
        assert!(fp.complete, "{name}: footprint-sharded DPOR must exhaust the tree");
        assert_eq!(fp_set, base_set, "{name}: footprint interest changed the outcome set");

        let nprocs = spec.procs.len();
        let (full, full_set) = outcomes(opts(), || {
            spec.build_system().sharding(Some(ShardConfig::full(NSHARDS, nprocs)))
        });
        assert!(full.complete, "{name}: full-interest sharded DPOR must exhaust the tree");
        assert_eq!(full_set, base_set, "{name}: full-interest sharding changed the outcome set");

        println!(
            "{name}: {} outcomes (unsharded {} runs, footprint {} runs, full {} runs)",
            base_set.len(),
            base.runs,
            fp.runs,
            full.runs
        );
    }
}

/// Heterogeneous lattice assignments ride sharding unchanged: each
/// process keeps its own point's guarantees over per-shard projections,
/// and the observable outcome set still matches full replication.
#[test]
fn litmus_outcome_sets_match_under_heterogeneous_lattices() {
    let causal = ProcModel::Fixed(ModelSpec::CAUSAL);
    let pram = ProcModel::Fixed(ModelSpec::PRAM);
    let processor = ProcModel::Fixed(ModelSpec::PROCESSOR);
    let cases: Vec<(&str, ProgSpec, Vec<ProcModel>)> = vec![
        ("wrc", wrc(), vec![causal, causal, pram]),
        ("iriw", iriw(), vec![pram, pram, causal, causal]),
        ("two_plus_two_w", two_plus_two_w(), vec![processor, processor, causal]),
    ];
    for (name, spec, models) in cases {
        let assigned = spec.models(models);
        let (base, base_set) = outcomes(opts(), || assigned.build_system());
        assert!(base.complete, "{name}: unsharded DPOR must exhaust the tree");
        let sharded = assigned.clone().sharded(NSHARDS);
        let (sh, sh_set) = outcomes(opts(), || sharded.build_system());
        assert!(sh.complete, "{name}: sharded DPOR must exhaust the tree");
        assert_eq!(sh_set, base_set, "{name}: sharding changed the lattice-assigned outcome set");
    }
}

/// Subscribe-on-first-touch conformance: an empty static interest set
/// forces every access through the directory (SubReq/SubAck plus
/// per-write backfill). A first-touch *read* executes the moment the
/// subscription lands — before any backfill can — so the dynamic
/// outcome set may shrink (both naive DFS and DPOR agree on the
/// narrowed set), but it must never invent an observation static
/// interest could not produce.
#[test]
fn dynamic_first_touch_never_invents_outcomes() {
    let spec = wrc();
    let static_spec = spec.clone().sharded(NSHARDS);
    let (st, static_set) = outcomes(opts(), || static_spec.build_system());
    assert!(st.complete, "static-interest DPOR must exhaust the tree");
    let dynamic_spec = spec.sharded(NSHARDS).interest(2, vec![]);
    let (dy, dynamic_set) = outcomes(opts(), || dynamic_spec.build_system());
    assert!(dy.complete, "dynamic-interest DPOR must exhaust the tree");
    let (dy_naive, dynamic_naive_set) =
        outcomes(opts().dpor(false), || dynamic_spec.build_system());
    assert!(dy_naive.complete, "dynamic-interest naive DFS must exhaust the tree");
    assert_eq!(dynamic_set, dynamic_naive_set, "DPOR lost or invented dynamic outcomes");
    assert!(!dynamic_set.is_empty(), "dynamic litmus program must produce reads");
    assert!(
        dynamic_set.is_subset(&static_set),
        "first-touch subscription invented outcomes: {:?} not in {:?}",
        dynamic_set.difference(&static_set).collect::<Vec<_>>(),
        static_set
    );
}

/// Regression for the backfill chain cycle: p0's own chains are shard 0
/// = `{seq 1: 42, seq 3: 7}` and shard 1 = `{seq 2: 1}`; seq 3 carries
/// a dependency triple into shard 1 and seq 2 one into shard 0. A late
/// joiner subscribing to both shards must drain every backfill — the
/// per-write pushes follow the acyclic causal order, where the old
/// atomic per-shard chain shipment could park each chain on the other
/// (see `replica::tests::per_write_recovery_pushes_avoid_cross_shard_chain_cycle`).
#[test]
fn dynamic_backfill_resolves_cross_shard_chains() {
    let spec = ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 42), w(1, 1), w(0, 7)])
        .proc(vec![
            SpecOp::Await { loc: mixed_consistency::Loc(1), value: 1 },
            SpecOp::Await { loc: mixed_consistency::Loc(0), value: 7 },
            rc(0),
        ])
        .sharded(NSHARDS)
        .interest(1, vec![]);
    let (out, set) = outcomes(opts(), || spec.build_system());
    assert!(out.complete, "backfill exploration must exhaust the tree (no parked chains)");
    assert!(
        set.iter().all(|v| v.last() == Some(&7)),
        "after both awaits the joiner reads the full chain: {set:?}"
    );
}

/// Seeded network faults under sharding: drops, duplicates, reordering,
/// and a timed partition, all masked by the reliable session layer.
/// Every run must complete and verify.
#[test]
fn sharded_litmus_survives_faulty_network() {
    for (name, spec) in corpus() {
        let sharded = spec.sharded(NSHARDS);
        for seed in 0..5u64 {
            let lossy = FaultPlan::new()
                .drop_rate(0.3)
                .duplicate_rate(0.2)
                .reorder(SimTime::from_micros(80));
            let sys = sharded
                .build_system()
                .sim_config(SimConfig::with_seed(seed))
                .faults(lossy)
                .reliable(true);
            let outcome = sys.run().unwrap_or_else(|e| panic!("{name} seed {seed} (lossy): {e}"));
            outcome.verify().unwrap_or_else(|e| panic!("{name} seed {seed} (lossy): {e}"));

            let split = FaultPlan::new().partition(
                vec![NodeId(0)],
                (1..spec_nodes(&sharded)).map(|n| NodeId(n as u32)).collect(),
                SimTime::from_micros(10),
                SimTime::from_micros(400),
            );
            let sys = sharded
                .build_system()
                .sim_config(SimConfig::with_seed(seed))
                .faults(split)
                .reliable(true);
            let outcome =
                sys.run().unwrap_or_else(|e| panic!("{name} seed {seed} (partition): {e}"));
            outcome.verify().unwrap_or_else(|e| panic!("{name} seed {seed} (partition): {e}"));
        }
    }
}

fn spec_nodes(spec: &ProgSpec) -> usize {
    spec.procs.len()
}

/// Explored crash-recovery of the durable writer under sharding: the
/// reborn node replays its WAL and re-ships per-write recovery deltas.
/// Every completing branch verifies, and no branch can invent an
/// outcome outside the fault-free sharded set.
#[test]
fn sharded_crash_recover_preserves_outcomes() {
    let spec = store_buffer().sharded(NSHARDS).durable(2);
    let (quiet, quiet_set) = outcomes(opts(), || spec.build_system());
    assert!(quiet.complete, "fault-free durable sharded DPOR must exhaust the tree");
    let (crashed, crashed_set) =
        outcomes(ExploreOptions::new().allow_deadlock(true).max_runs(3_000_000), || {
            spec.build_system()
                .explore_faults(mixed_consistency::FaultBudget::new().crash_recover_of(NodeId(0)))
        });
    assert!(crashed.complete, "crash-recover exploration must exhaust the tree");
    assert!(
        crashed_set.is_subset(&quiet_set),
        "crash-recovery invented outcomes: {:?} not in {:?}",
        crashed_set.difference(&quiet_set).collect::<Vec<_>>(),
        quiet_set
    );
    assert!(!crashed_set.is_empty(), "some crash-recover branches must complete");
}
