//! Oracle agreement: the stamp-based checker vs a dense reference.
//!
//! `check_model` judges reads on chain stamps (`causality.rs`) and
//! per-chain tracks (`check.rs`), never a closure matrix or a scan of the
//! history. This file keeps the judgement it replaced, written
//! independently from the public edge getters: every relation is
//! [`Digraph::transitive_closure`] over the admitted generating edges,
//! every read scans the whole history, coherence closes a graph per
//! location. On every generated history and every assignment the two
//! must produce the same `Result` — the same violating reads with the
//! same `by` / `newer` witnesses, the same `skipped` and `global` lists —
//! not just the same verdict.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mc_model::check::{
    check_grouped, CheckError, CheckReport, GlobalViolation, Violation, ViolationKind,
};
use mc_model::graph::{BitMatrix, Digraph};
use mc_model::spec::check_model;
use mc_model::{
    litmus, sc, BarrierId, BarrierRound, Causality, Edge, History, HistoryBuilder, Loc, LockId,
    LockMode, ModelAssignment, ModelSpec, OpId, OpKind, OrderScope, ProcId, ProcModel, ReadLabel,
    SyncScope, Value, WriteId,
};

// ------------------------------------------------------------ the reference

fn closure(n: usize, edges: impl IntoIterator<Item = Edge>) -> BitMatrix {
    let mut g = Digraph::new(n);
    for (a, b) in edges {
        g.add_edge(a.index(), b.index());
    }
    g.transitive_closure().expect("generated histories are acyclic")
}

fn reduction(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let mut g = Digraph::new(n);
    for &(a, b) in edges {
        g.add_edge(a.index(), b.index());
    }
    let red = g.transitive_reduction().expect("acyclic");
    red.edges().map(|(a, b)| (OpId(a as u32), OpId(b as u32))).collect()
}

/// A dense relation: a member mask and the closure of its edges.
struct Dense {
    members: Vec<bool>,
    closure: BitMatrix,
}

impl Dense {
    fn new(h: &History, i: ProcId, edges: Vec<Edge>) -> Dense {
        let members = h.ops().iter().map(|op| op.proc == i || !op.kind.is_read()).collect();
        Dense { members, closure: closure(h.len(), edges) }
    }

    fn precedes(&self, a: OpId, b: OpId) -> bool {
        self.members[a.index()] && self.members[b.index()] && self.closure.get(a.index(), b.index())
    }
}

/// The admitted edges of `spec` for observer `i`, every ordered program
/// pair considered one by one.
fn spec_relation(h: &History, cz: &Causality<'_>, i: ProcId, spec: &ModelSpec) -> Dense {
    let po = closure(h.len(), h.po_edges().iter().copied());
    let sync = |o: OpId| h.op(o).kind.is_sync();
    let mut edges = Vec::new();
    for p in 0..h.nprocs() {
        let proc = ProcId(p as u32);
        let ops = h.proc_ops(proc);
        for (x, &a) in ops.iter().enumerate() {
            for &b in &ops[x + 1..] {
                if !po.get(a.index(), b.index()) {
                    continue;
                }
                let (ka, kb) = (&h.op(a).kind, &h.op(b).kind);
                let keep = sync(a)
                    || sync(b)
                    || if proc == i {
                        (ka.is_write_like() && spec.read_your_writes)
                            || (ka.is_read() && spec.monotonic_reads)
                    } else {
                        match spec.monotonic_writes {
                            OrderScope::Global => true,
                            OrderScope::PerLocation => {
                                ka.is_write_like() && kb.is_write_like() && ka.loc() == kb.loc()
                            }
                            OrderScope::None => false,
                        }
                    };
                if keep {
                    edges.push((a, b));
                }
            }
        }
    }
    match spec.sync {
        SyncScope::Full => {
            edges.extend(cz.lock_edges().iter().chain(cz.bar_edges()).chain(cz.await_edges()))
        }
        SyncScope::Incident => edges.extend(
            cz.reduced_lock_edges()
                .iter()
                .chain(cz.reduced_bar_edges())
                .chain(cz.reduced_await_edges())
                .filter(|&&(a, b)| h.op(a).proc == i || h.op(b).proc == i),
        ),
    }
    edges.extend(
        cz.rf_edges()
            .iter()
            .filter(|&&(w, r)| spec.writes_follow_reads || h.op(w).proc == i || h.op(r).proc == i),
    );
    Dense::new(h, i, edges)
}

fn group_relation(h: &History, cz: &Causality<'_>, i: ProcId, group: &[ProcId]) -> Dense {
    let touches = |&&(a, b): &&Edge| group.contains(&h.op(a).proc) || group.contains(&h.op(b).proc);
    let mut edges = h.po_edges().to_vec();
    edges.extend(
        cz.reduced_lock_edges()
            .iter()
            .chain(cz.reduced_bar_edges())
            .chain(cz.reduced_await_edges())
            .chain(cz.rf_edges())
            .filter(touches),
    );
    Dense::new(h, i, edges)
}

/// Definitions 2/3 by scanning the whole history for an intervening
/// differently-valued operation.
fn plain_read(
    h: &History,
    rel: &Dense,
    read: OpId,
    loc: Loc,
    value: Value,
) -> Option<ViolationKind> {
    let writer = h.reads_from(read);
    let wop = if writer.is_initial() { None } else { h.write_op(writer) };
    if let Some(w) = wop {
        if !rel.precedes(w, read) {
            return Some(ViolationKind::WriterNotVisible { writer });
        }
    }
    for (oid, op) in h.iter() {
        if oid == read || Some(oid) == wop || !rel.members[oid.index()] {
            continue;
        }
        let (oloc, ovalue) = match &op.kind {
            OpKind::Write { loc, value, .. } | OpKind::Read { loc, value, .. } => (*loc, *value),
            _ => continue,
        };
        if oloc != loc || ovalue == value {
            continue;
        }
        let after_writer = wop.is_none_or(|w| rel.precedes(w, oid));
        if after_writer && rel.precedes(oid, read) {
            return Some(match wop {
                Some(_) => ViolationKind::Overwritten { writer, by: oid },
                None => ViolationKind::StaleInitial { newer: oid },
            });
        }
    }
    None
}

fn counter_read(
    h: &History,
    rel: &Dense,
    read: OpId,
    loc: Loc,
    value: Value,
) -> Result<Option<ViolationKind>, ()> {
    let mut delta = None;
    for op in h.ops() {
        if let OpKind::Update { loc: l, delta: d, .. } = op.kind {
            if l == loc {
                match delta {
                    None => delta = Some(d.as_i64().ok_or(())?),
                    Some(prev) if Some(prev) != d.as_i64() => return Err(()),
                    _ => {}
                }
            }
        }
    }
    let delta = delta.filter(|&d| d != 0).ok_or(())?;
    let init = h.initial(loc).as_i64().ok_or(())?;
    let diff = value.as_i64().ok_or(())? - init;
    if diff % delta != 0 || diff / delta < 0 {
        return Ok(Some(ViolationKind::CounterValueUnreachable));
    }
    let accounted = (diff / delta) as usize;
    let preceding = h
        .iter()
        .filter(|(o, op)| {
            matches!(op.kind, OpKind::Update { loc: l, .. } if l == loc) && rel.precedes(*o, read)
        })
        .count();
    Ok((preceding > accounted)
        .then_some(ViolationKind::CounterMissingUpdates { preceding, accounted }))
}

/// Every read judged under `rel_of(read's process, judged label)`, in
/// operation order; `None` from `judge` means the read is not judged here.
fn reference_reads(
    h: &History,
    judge: impl Fn(ProcId, ReadLabel) -> Option<ReadLabel>,
    rel_of: impl Fn(ProcId, ReadLabel) -> Dense,
) -> CheckReport {
    let mut report = CheckReport::default();
    let (mut updated, mut written) = (HashSet::new(), HashSet::new());
    for op in h.ops() {
        match op.kind {
            OpKind::Update { loc, .. } => updated.insert(loc),
            OpKind::Write { loc, .. } => written.insert(loc),
            _ => false,
        };
    }
    for (id, op) in h.iter() {
        let OpKind::Read { loc, label, value, .. } = op.kind else { continue };
        let Some(judged_as) = judge(op.proc, label) else { continue };
        let rel = rel_of(op.proc, judged_as);
        if updated.contains(&loc) {
            if written.contains(&loc) {
                report.skipped.push(id);
                continue;
            }
            match counter_read(h, &rel, id, loc, value) {
                Ok(Some(kind)) => report.violations.push(Violation { read: id, judged_as, kind }),
                Ok(None) => {}
                Err(()) => report.skipped.push(id),
            }
        } else if let Some(kind) = plain_read(h, &rel, id, loc, value) {
            report.violations.push(Violation { read: id, judged_as, kind });
        }
    }
    report
}

fn coherent_at(h: &History, models: &ModelAssignment, loc: Loc) -> bool {
    let init = h.len();
    let mut g = Digraph::new(h.len() + 1);
    for p in 0..h.nprocs() {
        let proc = ProcId(p as u32);
        let writes: Vec<OpId> = h
            .proc_ops(proc)
            .iter()
            .copied()
            .filter(|&o| matches!(h.op(o).kind, OpKind::Write { loc: l, .. } if l == loc))
            .collect();
        for &w in &writes {
            g.add_edge(init, w.index());
        }
        for w in writes.windows(2) {
            g.add_edge(w[0].index(), w[1].index());
        }
        if !models.is_coherent(proc) {
            continue;
        }
        let mut last: Option<usize> = None;
        for &o in h.proc_ops(proc) {
            let node = match &h.op(o).kind {
                OpKind::Write { loc: l, .. } if *l == loc => o.index(),
                OpKind::Read { loc: l, .. } if *l == loc => {
                    let w = h.reads_from(o);
                    match h.write_op(w) {
                        _ if w.is_initial() => init,
                        Some(wo) => wo.index(),
                        None => continue,
                    }
                }
                _ => continue,
            };
            if let Some(prev) = last.filter(|&prev| prev != node) {
                g.add_edge(prev, node);
            }
            last = Some(node);
        }
    }
    g.transitive_closure().is_ok()
}

/// All writes and synchronization plus the reads of total-store-order
/// processes, program order kept among them.
fn tso_projection(h: &History, models: &ModelAssignment) -> History {
    let tso = |p: ProcId| matches!(models.get(p), ProcModel::Fixed(s) if s.total_store_order);
    let keep = |id: OpId| !h.op(id).kind.is_read() || tso(h.op(id).proc);
    let po = closure(h.len(), h.po_edges().iter().copied());
    let mut b = HistoryBuilder::new(h.nprocs());
    for op in h.ops() {
        if let Some(loc) = op.kind.loc() {
            b.set_initial(loc, h.initial(loc));
        }
    }
    let mut new_id: Vec<Option<OpId>> = vec![None; h.len()];
    for (id, op) in h.iter().filter(|&(id, _)| keep(id)) {
        // Kept predecessors with no kept operation between them and `id`.
        let below: Vec<OpId> = h
            .proc_ops(op.proc)
            .iter()
            .copied()
            .filter(|&a| keep(a) && po.get(a.index(), id.index()))
            .collect();
        let preds: Vec<OpId> = below
            .iter()
            .copied()
            .filter(|&a| !below.iter().any(|&m| po.get(a.index(), m.index())))
            .map(|a| new_id[a.index()].expect("preds precede"))
            .collect();
        new_id[id.index()] = Some(b.push_after(op.proc, op.kind.clone(), &preds));
    }
    b.build().expect("projection of a well-formed history is well-formed")
}

/// `check_model` as it was: dense relations, scanned reads.
fn reference_model(h: &History, models: &ModelAssignment) -> Result<CheckReport, CheckError> {
    let cz = Causality::new(h).map_err(CheckError::Causality)?;
    let mut report = reference_reads(
        h,
        |p, label| {
            (!models.spec_for(p, label).total_store_order).then(|| models.judged_as(p, label))
        },
        // A fixed spec ignores the label; a mixed process is judged as labeled.
        |p, judged_as| spec_relation(h, &cz, p, &models.spec_for(p, judged_as)),
    );
    if models.any_coherent() {
        let mut locs: Vec<Loc> = h
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Write { loc, .. } => Some(loc),
                _ => None,
            })
            .filter(|&l| {
                !h.ops().iter().any(|op| matches!(op.kind, OpKind::Update { loc, .. } if loc == l))
            })
            .collect();
        locs.sort_by_key(|l| l.0);
        locs.dedup();
        for loc in locs {
            if !coherent_at(h, models, loc) {
                report.global.push(GlobalViolation::CoherenceCycle { loc });
            }
        }
    }
    if models.any_tso() {
        let verdict = if models.all_tso() {
            sc::check_sequential(h)
        } else {
            sc::check_sequential(&tso_projection(h, models))
        };
        if verdict.map_err(CheckError::Causality)? == sc::ScVerdict::NotSequentiallyConsistent {
            report.global.push(GlobalViolation::NotSerializable);
        }
    }
    report.into_result()
}

fn reference_grouped(h: &History, groups: &[Vec<ProcId>]) -> Result<CheckReport, CheckError> {
    let cz = Causality::new(h).map_err(CheckError::Causality)?;
    reference_reads(h, |_, label| Some(label), |p, _| group_relation(h, &cz, p, &groups[p.index()]))
        .into_result()
}

/// The `Causality` structure itself against dense closures and
/// reductions of its own generating edges.
fn assert_structure(h: &History) {
    let cz = Causality::new(h).unwrap();
    let all: Vec<Edge> = h
        .po_edges()
        .iter()
        .chain(cz.lock_edges())
        .chain(cz.bar_edges())
        .chain(cz.await_edges())
        .chain(cz.rf_edges())
        .copied()
        .collect();
    let full = closure(h.len(), all);
    let po = closure(h.len(), h.po_edges().iter().copied());
    for a in h.op_ids() {
        for b in h.op_ids() {
            assert_eq!(
                cz.precedes(a, b),
                full.get(a.index(), b.index()),
                "{a} ; {b} in\n{}",
                h.to_pretty_string()
            );
            assert_eq!(cz.po_precedes(a, b), po.get(a.index(), b.index()), "{a} -> {b}");
        }
    }
    assert_eq!(cz.reduced_lock_edges(), reduction(h.len(), cz.lock_edges()), "↦p_lock");
    assert_eq!(
        cz.reduced_bar_edges(),
        reduction(h.len(), cz.bar_edges()),
        "↦p_bar in\n{}",
        h.to_pretty_string()
    );
    assert_eq!(cz.reduced_await_edges(), reduction(h.len(), cz.await_edges()), "↦p_await");
}

fn assert_agrees(h: &History, models: &ModelAssignment) {
    assert_eq!(
        check_model(h, models),
        reference_model(h, models),
        "check_model under [{models}] disagrees with the dense reference on\n{}",
        h.to_pretty_string()
    );
}

/// Every lattice point uniformly (SC only where the exact search is
/// cheap), plus `extra` random heterogeneous assignments.
fn assert_all_points(h: &History, rng: &mut StdRng, extra: usize) {
    let n = h.nprocs();
    let small = h.len() <= 18;
    let points: Vec<ProcModel> = ProcModel::ALL
        .iter()
        .copied()
        .filter(|m| small || !matches!(m, ProcModel::Fixed(s) if s.total_store_order))
        .collect();
    for &m in &points {
        assert_agrees(h, &ModelAssignment::per_proc(vec![m; n]));
    }
    for _ in 0..extra {
        let mix = (0..n).map(|_| points[rng.gen_range(0..points.len())]).collect();
        assert_agrees(h, &ModelAssignment::per_proc(mix));
    }
}

// ------------------------------------------------------ history generation

/// A random well-formed history over 2–4 processes: writes (values drawn
/// from a small pool, so equal values recur), reads naming their writer,
/// awaits, counter updates (a uniform counter, a non-uniform one, and a
/// location mixing writes and updates), read and write critical sections
/// (read sections sometimes shared by two processes), two barrier
/// objects, and forks of two concurrent operations joined by a third
/// (`push_after`).
fn random_history(seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let nprocs = rng.gen_range(2..=4usize);
    let mut b = HistoryBuilder::new(nprocs);
    let (counter, lumpy, both) = (Loc(7), Loc(8), Loc(9));
    b.set_initial(counter, Value::Int(20));
    // Per location: the writes so far, (id, value).
    let mut writes: Vec<Vec<(WriteId, Value)>> = vec![Vec::new(); 7];
    // Per counter location: its updates so far.
    let mut updates: [Vec<WriteId>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut last: Vec<Option<OpId>> = vec![None; nprocs];
    let mut minted = 1_000_000u32;
    let mut rounds = [0u32; 2];
    let bars = [BarrierId(0), BarrierId(1)];
    let bar1: Vec<usize> = (0..nprocs).filter(|_| rng.gen_bool(0.6)).collect();

    for _ in 0..rng.gen_range(4..28) {
        let p = ProcId(rng.gen_range(0..nprocs) as u32);
        let label = if rng.gen_bool(0.5) { ReadLabel::Causal } else { ReadLabel::Pram };
        // A write, or a read of an earlier write (or the initial value).
        let mut memory_op =
            |rng: &mut StdRng, locs: std::ops::Range<u32>, p_write: f64| -> OpKind {
                let loc = rng.gen_range(locs);
                let pool = &mut writes[loc as usize];
                if rng.gen_bool(p_write) {
                    minted += 1;
                    let id = WriteId::new(p, minted);
                    let value = Value::Int(rng.gen_range(1..5));
                    pool.push((id, value));
                    OpKind::Write { loc: Loc(loc), value, id }
                } else {
                    let (writer, value) = match rng.gen_range(0..=pool.len()) {
                        0 => (WriteId::initial(Loc(loc)), Value::INITIAL),
                        k => pool[k - 1],
                    };
                    OpKind::Read { loc: Loc(loc), label, value, writer: Some(writer) }
                }
            };
        match rng.gen_range(0..15) {
            0..=4 => {
                let op = memory_op(&mut rng, 0..3, 0.45);
                last[p.index()] = Some(b.push(p, op));
            }
            5 => {
                let k: usize = rng.gen_range(0..3);
                let (id, w) = match k {
                    0 => b.push_update(p, counter, -1),
                    1 => b.push_update(p, lumpy, rng.gen_range(-2..0)),
                    _ if rng.gen_bool(0.5) => b.push_update(p, both, -1),
                    _ => {
                        let (id, _) = b.push_write(p, both, Value::Int(3));
                        last[p.index()] = Some(id);
                        continue;
                    }
                };
                updates[k].push(w);
                last[p.index()] = Some(id);
            }
            6 => {
                // A counter read: mostly a reachable value, sometimes not.
                let k: usize = rng.gen_range(0..3);
                let Some(loc) = (!updates[k].is_empty()).then_some([counter, lumpy, both][k])
                else {
                    // No update yet: the value would name no writer.
                    continue;
                };
                let value = match k {
                    0 => Value::Int(20 - rng.gen_range(-1..=updates[0].len() as i64 + 1)),
                    _ => Value::Int(rng.gen_range(-3..2)),
                };
                last[p.index()] = Some(b.push(p, OpKind::Read { loc, label, value, writer: None }));
            }
            7 => {
                let loc: usize = rng.gen_range(0..3);
                let op = match writes[loc].last() {
                    Some(&(w, value)) => {
                        OpKind::Await { loc: Loc(loc as u32), value, writers: vec![w] }
                    }
                    None if !updates[0].is_empty() => OpKind::Await {
                        loc: counter,
                        value: Value::Int(20 - updates[0].len() as i64),
                        writers: updates[0].clone(),
                    },
                    None => continue,
                };
                last[p.index()] = Some(b.push(p, op));
            }
            8 | 9 => {
                let lock = LockId(rng.gen_range(0..2));
                let mode = if rng.gen_bool(0.5) { LockMode::Write } else { LockMode::Read };
                let q = ProcId(rng.gen_range(0..nprocs) as u32);
                let partner = (mode == LockMode::Read && q != p).then_some(q);
                b.push_lock(p, lock, mode);
                if let Some(q) = partner {
                    b.push_lock(q, lock, mode);
                }
                let op = memory_op(&mut rng, 0..3, if mode == LockMode::Write { 1.0 } else { 0.0 });
                b.push(p, op);
                if let Some(q) = partner {
                    last[q.index()] = Some(b.push_unlock(q, lock, mode));
                }
                last[p.index()] = Some(b.push_unlock(p, lock, mode));
            }
            10 | 11 => {
                // Fork two operations on different locations, then join.
                let root = last[p.index()];
                let ka = memory_op(&mut rng, 0..3, 0.5);
                let kb = memory_op(&mut rng, 3..5, 0.5);
                let x = b.push_after(p, ka, root.as_slice());
                let y = b.push_after(p, kb, root.as_slice());
                let kc = memory_op(&mut rng, 5..7, 0.5);
                last[p.index()] = Some(b.push_after(p, kc, &[x, y]));
            }
            _ => {
                let (bar, who): (usize, Vec<usize>) = if rng.gen_bool(0.6) || bar1.len() < 2 {
                    (0, (0..nprocs).collect::<Vec<_>>())
                } else {
                    (1, bar1.clone())
                };
                for q in who {
                    let id = b.push_barrier(ProcId(q as u32), bars[bar], BarrierRound(rounds[bar]));
                    last[q] = Some(id);
                }
                rounds[bar] += 1;
            }
        }
    }
    b.build().unwrap_or_else(|e| panic!("seed {seed}: generated history malformed: {e}"))
}

// --------------------------------------------------------------- the tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every lattice point and random heterogeneous assignments: whole
    /// `Result` equality with the dense reference.
    #[test]
    fn check_model_matches_the_dense_reference(seed in any::<u64>()) {
        let h = random_history(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        assert_structure(&h);
        assert_all_points(&h, &mut rng, 4);
    }

    /// `check_grouped` (and through it, the PRAM↔causal spectrum) on
    /// random groups.
    #[test]
    fn check_grouped_matches_the_dense_reference(seed in any::<u64>()) {
        let h = random_history(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9);
        let n = h.nprocs();
        let groups: Vec<Vec<ProcId>> = (0..n)
            .map(|i| (0..n).filter(|&j| j == i || rng.gen_bool(0.4)).map(|j| ProcId(j as u32)).collect())
            .collect();
        prop_assert_eq!(check_grouped(&h, &groups), reference_grouped(&h, &groups));
    }
}

/// The model crate's anomaly corpus (the litmus library — the shapes the
/// lattice matrix pins), every point and a few heterogeneous mixes.
#[test]
fn litmus_corpus_by_lattice_matches_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(7);
    for h in [
        litmus::causality_chain(ReadLabel::Pram),
        litmus::causality_chain(ReadLabel::Causal),
        litmus::store_buffer(),
        litmus::write_order_disagreement(),
        litmus::iriw(),
        litmus::wrc(ReadLabel::Pram),
        litmus::wrc(ReadLabel::Causal),
        litmus::two_plus_two_w(),
        litmus::fifo_violation(),
        litmus::lock_transitive_chain(),
        litmus::figure1().history,
        litmus::entry_consistent_transfer(),
        litmus::barrier_phase_program(),
        litmus::producer_consumer_await(),
        litmus::counter_await(),
    ] {
        assert_structure(&h);
        assert_all_points(&h, &mut rng, 6);
    }
}

/// Chain counts: one per process wherever other processes' program order
/// is kept whole.
#[test]
fn one_chain_per_process_where_program_order_is_kept() {
    let mut samples = 0;
    for seed in 0..400 {
        let h = random_history(seed);
        let busy = (0..h.nprocs() as u32).filter(|&q| !h.proc_ops(ProcId(q)).is_empty()).count();
        let (from, to): (HashSet<OpId>, HashSet<OpId>) = h.po_edges().iter().copied().unzip();
        let edges = h.po_edges().len();
        if from.len() != edges || to.len() != edges || edges + busy != h.len() {
            continue; // forks: a process is not one chain
        }
        samples += 1;
        let cz = Causality::new(&h).unwrap();
        for p in (0..h.nprocs() as u32).map(ProcId) {
            // Processes with a member: p itself, and any with a non-read.
            let seen = (0..h.nprocs() as u32)
                .map(ProcId)
                .filter(|&q| h.proc_ops(q).iter().any(|&o| q == p || !h.op(o).kind.is_read()))
                .count();
            for spec in [ModelSpec::PRAM, ModelSpec::CAUSAL, ModelSpec::PROCESSOR] {
                assert_eq!(cz.spec_relation(p, &spec).chain_count(), seen, "seed {seed}, {spec}");
            }
        }
    }
    assert!(samples >= 10, "only {samples} fork-free samples");
}
