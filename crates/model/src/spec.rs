//! Consistency models as data: the ordering-property lattice.
//!
//! The paper's PRAM (Definition 3), causal (Definition 2), and mixed
//! (Definition 4) modes — plus sequential consistency — were originally
//! four hand-coded checkers. Steinke & Nutt's unified theory shows they
//! are points in a *lattice* of ordering-property compositions, and
//! Cheng/Higham/Kawash's partition consistency shows that assigning a
//! different point to each process is itself a point in that space —
//! exactly the paper's "mixed" idea, generalized.
//!
//! This module makes the lattice first-class:
//!
//! * [`ModelSpec`] declares which ordering properties a process's reads
//!   must respect (read-your-writes, monotonic reads, a scope for other
//!   processes' write order, writes-follow-reads, a scope for
//!   synchronization visibility, per-location coherence, and total store
//!   order).
//! * [`check_model`] is a declarative validator: it evaluates *any*
//!   [`ModelAssignment`] — one [`ProcModel`] per process — against a
//!   recorded [`History`], with no model-specific code paths.
//! * The legacy modes are re-expressed as constants ([`ModelSpec::PRAM`],
//!   [`ModelSpec::CAUSAL`], [`ModelSpec::SC`], and [`ProcModel::ByLabel`]
//!   for mixed), and three further points come nearly for free:
//!   [`ModelSpec::SLOW`], [`ModelSpec::WEAK_ORDERING`], and
//!   [`ModelSpec::PROCESSOR`].
//!
//! # Soundness
//!
//! For every spec the validator builds, per observing process `i`, a
//! sub-relation of the full causality order `;` (see
//! [`Causality::spec_relation`]): each declared property admits a subset
//! of the generating edges of `;`, so the result is acyclic whenever the
//! history itself is, and judging each read by the same
//! visibility/overwrite rule as Definitions 2/3 (shared with the legacy
//! checkers) gives exactly those definitions back when the property set
//! matches. Because the reads-from edges incident to the observer are
//! always included, a larger property set can only produce a larger
//! relation and therefore at least as many violations: the lattice order
//! on specs is the inclusion order on relations, which is what makes
//! `SLOW ⊑ PRAM ⊑ CAUSAL ⊑ SC` checkable as a containment of failing
//! histories.

use std::collections::HashMap;
use std::fmt;

use crate::causality::Causality;
use crate::check::{judge_reads, CheckError, CheckReport, GlobalViolation, Locations};
use crate::history::{History, HistoryBuilder};
use crate::ids::{Loc, OpId, ProcId};
use crate::op::{OpKind, ReadLabel};

/// How far another process's program order must be respected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OrderScope {
    /// Not at all: another process's operations are mutually unordered
    /// (weak ordering's data operations between synchronization points).
    None,
    /// Only between write-like operations on the *same* location (slow
    /// memory).
    PerLocation,
    /// Fully: the complete program order of every process is respected
    /// (PRAM and everything above it).
    Global,
}

/// How much synchronization order a process's reads must respect.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SyncScope {
    /// Only synchronization edges incident to the observing process (the
    /// paper's Definition 3: `↦` restricted to operations "involving"
    /// `p_i`).
    Incident,
    /// The full transitive synchronization order (Definition 2).
    Full,
}

/// A consistency model as a set of ordering properties — data, not code.
///
/// The paper's relations map onto the fields as follows: Definition 2's
/// causal order `;i,C` is `writes_follow_reads = true` plus
/// `sync = Full`; Definition 3's PRAM order `;i,P` is
/// `writes_follow_reads = false` plus `sync = Incident`; Definition 4
/// (mixed) is a per-read choice between the two and is expressed as
/// [`ProcModel::ByLabel`] rather than a single spec.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModelSpec {
    /// Human-readable lattice-point name (stable, used in text formats).
    pub name: &'static str,
    /// A process's reads must respect its *own* earlier writes.
    pub read_your_writes: bool,
    /// A process's reads must respect its *own* earlier reads.
    pub monotonic_reads: bool,
    /// How far *other* processes' program order is respected.
    pub monotonic_writes: OrderScope,
    /// Writes causally after an observed read must be ordered after it
    /// (the property separating Definition 2 from Definition 3).
    pub writes_follow_reads: bool,
    /// Scope of the synchronization order `↦` folded into the relation.
    pub sync: SyncScope,
    /// All writes to each location must embed in one total order
    /// consistent with program order and every observer's view
    /// (cache coherence; with [`ModelSpec::PRAM`]'s fields this yields
    /// processor consistency).
    pub coherence: bool,
    /// All operations must embed in a single sequential order (total
    /// store order; with the causal fields this is sequential
    /// consistency).
    pub total_store_order: bool,
}

impl ModelSpec {
    /// Definition 3: pipelined RAM.
    pub const PRAM: ModelSpec = ModelSpec {
        name: "pram",
        read_your_writes: true,
        monotonic_reads: true,
        monotonic_writes: OrderScope::Global,
        writes_follow_reads: false,
        sync: SyncScope::Incident,
        coherence: false,
        total_store_order: false,
    };

    /// Definition 2: causal memory.
    pub const CAUSAL: ModelSpec = ModelSpec {
        name: "causal",
        writes_follow_reads: true,
        sync: SyncScope::Full,
        ..ModelSpec::PRAM
    };

    /// Sequential consistency: causal memory plus a total store order.
    pub const SC: ModelSpec =
        ModelSpec { name: "sc", total_store_order: true, ..ModelSpec::CAUSAL };

    /// Slow memory: own program order plus other processes' write order
    /// *per location* only.
    pub const SLOW: ModelSpec =
        ModelSpec { name: "slow", monotonic_writes: OrderScope::PerLocation, ..ModelSpec::PRAM };

    /// Weak ordering: data operations of other processes are unordered
    /// except through the (fully transitive) synchronization order.
    pub const WEAK_ORDERING: ModelSpec = ModelSpec {
        name: "weak",
        monotonic_writes: OrderScope::None,
        sync: SyncScope::Full,
        ..ModelSpec::PRAM
    };

    /// Processor consistency: PRAM plus per-location coherence.
    pub const PROCESSOR: ModelSpec =
        ModelSpec { name: "processor", coherence: true, ..ModelSpec::PRAM };

    /// Every named single-spec lattice point, strongest first.
    pub const ALL: &'static [ModelSpec] = &[
        ModelSpec::SC,
        ModelSpec::CAUSAL,
        ModelSpec::PROCESSOR,
        ModelSpec::PRAM,
        ModelSpec::WEAK_ORDERING,
        ModelSpec::SLOW,
    ];
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// The model a single process runs under.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProcModel {
    /// Every read of the process is judged under one fixed spec.
    Fixed(ModelSpec),
    /// Definition 4 (mixed): each read's own label picks
    /// [`ModelSpec::PRAM`] or [`ModelSpec::CAUSAL`].
    ByLabel,
}

impl ProcModel {
    /// Definition 3: [`ModelSpec::PRAM`].
    pub const PRAM: ProcModel = ProcModel::Fixed(ModelSpec::PRAM);
    /// Definition 2: [`ModelSpec::CAUSAL`].
    pub const CAUSAL: ProcModel = ProcModel::Fixed(ModelSpec::CAUSAL);
    /// Definition 4: [`ProcModel::ByLabel`].
    pub const MIXED: ProcModel = ProcModel::ByLabel;
    /// Definition 1: [`ModelSpec::SC`].
    pub const SC: ProcModel = ProcModel::Fixed(ModelSpec::SC);

    /// Every named lattice point, strongest first, mixed last.
    pub const ALL: &'static [ProcModel] = &[
        ProcModel::Fixed(ModelSpec::SC),
        ProcModel::Fixed(ModelSpec::CAUSAL),
        ProcModel::Fixed(ModelSpec::PROCESSOR),
        ProcModel::Fixed(ModelSpec::PRAM),
        ProcModel::Fixed(ModelSpec::WEAK_ORDERING),
        ProcModel::Fixed(ModelSpec::SLOW),
        ProcModel::ByLabel,
    ];

    /// The stable text-format name of this lattice point.
    pub fn name(&self) -> &'static str {
        match self {
            ProcModel::Fixed(s) => s.name,
            ProcModel::ByLabel => "mixed",
        }
    }

    /// Looks a lattice point up by its stable name (round-trips with
    /// [`ProcModel::name`]).
    pub fn named(name: &str) -> Option<ProcModel> {
        ProcModel::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// The spec a read with `label` is judged under.
    pub fn spec_for(&self, label: ReadLabel) -> ModelSpec {
        match self {
            ProcModel::Fixed(s) => *s,
            ProcModel::ByLabel => match label {
                ReadLabel::Pram => ModelSpec::PRAM,
                ReadLabel::Causal => ModelSpec::CAUSAL,
            },
        }
    }

    /// The label a read with `label` is *reported* as (the spec's side of
    /// the PRAM/causal split; used for relation caching and reporting).
    pub fn judged_as(&self, label: ReadLabel) -> ReadLabel {
        match self {
            ProcModel::Fixed(s) => {
                if s.writes_follow_reads {
                    ReadLabel::Causal
                } else {
                    ReadLabel::Pram
                }
            }
            ProcModel::ByLabel => label,
        }
    }
}

impl fmt::Display for ProcModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A per-process model assignment: one [`ProcModel`] per process.
///
/// A uniform assignment reproduces one of the paper's memories,
/// [`ModelAssignment::mixed`] reproduces Definition 4, and heterogeneous
/// assignments mix lattice points in one run (partition consistency).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ModelAssignment {
    procs: Vec<ProcModel>,
}

impl ModelAssignment {
    /// The same spec for every process.
    pub fn uniform(nprocs: usize, spec: ModelSpec) -> Self {
        ModelAssignment { procs: vec![ProcModel::Fixed(spec); nprocs] }
    }

    /// Definition 4 for every process: reads judged by their own label.
    pub fn mixed(nprocs: usize) -> Self {
        ModelAssignment { procs: vec![ProcModel::ByLabel; nprocs] }
    }

    /// An explicit per-process assignment.
    pub fn per_proc(procs: Vec<ProcModel>) -> Self {
        assert!(!procs.is_empty(), "assignment needs at least one process");
        ModelAssignment { procs }
    }

    /// Number of processes covered.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Always `false`: construction requires at least one process.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The model of process `proc`.
    pub fn get(&self, proc: ProcId) -> ProcModel {
        self.procs[proc.index()]
    }

    /// Iterates the per-process models in process order.
    pub fn iter(&self) -> impl Iterator<Item = &ProcModel> + '_ {
        self.procs.iter()
    }

    /// The spec a read by `proc` with `label` is judged under.
    pub fn spec_for(&self, proc: ProcId, label: ReadLabel) -> ModelSpec {
        self.get(proc).spec_for(label)
    }

    /// The label a read by `proc` with `label` is judged as.
    pub fn judged_as(&self, proc: ProcId, label: ReadLabel) -> ReadLabel {
        self.get(proc).judged_as(label)
    }

    /// Whether any process requires a total store order.
    pub fn any_tso(&self) -> bool {
        self.procs.iter().any(|m| matches!(m, ProcModel::Fixed(s) if s.total_store_order))
    }

    /// Whether every process requires a total store order.
    pub fn all_tso(&self) -> bool {
        self.procs.iter().all(|m| matches!(m, ProcModel::Fixed(s) if s.total_store_order))
    }

    /// Whether process `proc` requires per-location coherence.
    pub fn is_coherent(&self, proc: ProcId) -> bool {
        matches!(self.get(proc), ProcModel::Fixed(s) if s.coherence)
    }

    /// Whether any process requires per-location coherence.
    pub fn any_coherent(&self) -> bool {
        (0..self.len()).any(|p| self.is_coherent(ProcId(p as u32)))
    }
}

impl fmt::Display for ModelAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.procs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

/// Checks a history against a per-process [`ModelAssignment`]: the
/// declarative validator behind every lattice point.
///
/// Reads of processes with a total-store-order spec are judged by a
/// single serialization check (of all writes and synchronization but only
/// those processes' reads) — in linear time against the server's write
/// order when the history carries one ([`History::write_order`]), by
/// exact search otherwise; all other reads are judged by the
/// Definitions-2/3 rule under
/// the sub-relation their spec declares; coherent processes additionally
/// contribute their observations to a per-location write-serialization
/// check.
///
/// # Errors
///
/// Returns the violations found (per-read and global), or a causality
/// error for cyclic histories.
///
/// # Panics
///
/// Panics if `models.len() != h.nprocs()`.
pub fn check_model(h: &History, models: &ModelAssignment) -> Result<CheckReport, CheckError> {
    assert_eq!(models.len(), h.nprocs(), "one model per process");
    let causality = Causality::new(h)?;
    let locations = Locations::new(h);

    // Reads grouped by the relation they are judged under. A process needs
    // at most two: its fixed spec's relation, or (mixed) one per label —
    // in both cases `judged_as` indexes the slot unambiguously.
    let mut groups = vec![Vec::new(); 2 * h.nprocs()];
    let mut specs = vec![ModelSpec::PRAM; 2 * h.nprocs()];
    for (id, op) in h.iter() {
        let OpKind::Read { label, .. } = op.kind else {
            continue;
        };
        let spec = models.spec_for(op.proc, label);
        if spec.total_store_order {
            // Judged wholesale by the serialization check below.
            continue;
        }
        let judged_as = models.judged_as(op.proc, label);
        let k = 2 * op.proc.index() + usize::from(judged_as == ReadLabel::Causal);
        groups[k].push((id, judged_as));
        specs[k] = spec;
    }
    let mut report = judge_reads(h, &locations, &groups, |k| {
        causality.spec_relation(ProcId((k / 2) as u32), &specs[k])
    });

    if models.any_coherent() {
        let mut on_loc: HashMap<Loc, Vec<OpId>> = HashMap::new();
        for (id, op) in h.iter() {
            if let OpKind::Write { loc, .. } | OpKind::Read { loc, .. } = op.kind {
                on_loc.entry(loc).or_default().push(id);
            }
        }
        for loc in locations.plain_written() {
            if !coherent_at(h, models, &on_loc[&loc]) {
                report.global.push(GlobalViolation::CoherenceCycle { loc });
            }
        }
    }

    if models.any_tso() && !tso_serializable(h, &causality, models)? {
        report.global.push(GlobalViolation::NotSerializable);
    }

    report.into_result()
}

/// The total-store-order judgement of [`check_model`]: whether the
/// writes, updates, synchronization operations and the reads of
/// total-store-order processes have one sequential serialization.
///
/// A history carrying its server's write order is judged in linear time
/// against that order ([`crate::sc`]); a pass is a replayed
/// serialization, and a failure means the run is not sequentially
/// consistent in the order its server chose. Without one, the exact
/// search decides, over [`tso_projection`] unless every process demands
/// a total store order. A search that exhausts its budget counts as a
/// pass, the benefit of the doubt the dedicated SC checker gives.
fn tso_serializable(
    h: &History,
    causality: &Causality<'_>,
    models: &ModelAssignment,
) -> Result<bool, CheckError> {
    let tso_read =
        |id: OpId| matches!(models.get(h.op(id).proc), ProcModel::Fixed(s) if s.total_store_order);
    if let Some(ok) = crate::sc::serializable_in_write_order(h, causality, tso_read) {
        return Ok(ok);
    }
    let budget = crate::sc::DEFAULT_STATE_BUDGET;
    let verdict = if models.all_tso() {
        crate::sc::search(h, causality, budget)
    } else {
        crate::sc::check_sequential_with_budget(&tso_projection(h, models), budget)?
    };
    Ok(verdict != crate::sc::ScVerdict::NotSequentiallyConsistent)
}

/// Per-location coherence: all writes to one plain-write location (`ops`
/// are its reads and writes, in operation order) plus the initial
/// pseudo-write must embed in one total order that respects every
/// process's program order of writes and, for each coherent process, the
/// order in which its reads and own writes observed them. A cycle in
/// those constraints is the witness that no such order exists.
fn coherent_at(h: &History, models: &ModelAssignment, ops: &[OpId]) -> bool {
    use crate::graph::Digraph;
    // Node 0 is the initial write, then the location's writes in order.
    let mut node: HashMap<OpId, usize> = HashMap::new();
    for &o in ops {
        if matches!(h.op(o).kind, OpKind::Write { .. }) {
            node.insert(o, node.len() + 1);
        }
    }
    let mut g = Digraph::new(node.len() + 1);

    // Per process: the last write seen in its program order and, for a
    // coherent process, the last write any of its accesses exposed.
    let mut last_write: Vec<Option<usize>> = vec![None; h.nprocs()];
    let mut last_seen: Vec<Option<usize>> = vec![None; h.nprocs()];
    for &o in ops {
        let op = h.op(o);
        let p = op.proc.index();
        let seen = match &op.kind {
            OpKind::Write { .. } => {
                let w = node[&o];
                g.add_edge(0, w);
                if let Some(prev) = last_write[p].replace(w) {
                    g.add_edge(prev, w);
                }
                w
            }
            _ => {
                let w = h.reads_from(o);
                if w.is_initial() {
                    0
                } else {
                    match h.write_op(w).and_then(|wo| node.get(&wo)) {
                        Some(&n) => n,
                        None => continue,
                    }
                }
            }
        };
        if models.is_coherent(op.proc) {
            if let Some(prev) = last_seen[p].replace(seen) {
                if prev != seen {
                    g.add_edge(prev, seen);
                }
            }
        }
    }

    g.topo_order().is_ok()
}

/// Projects a history for a partial total-store-order check: every
/// write, update, and synchronization operation is kept, but only the
/// reads of processes whose spec demands a total store order. Program
/// order among the kept operations is preserved exactly.
fn tso_projection(h: &History, models: &ModelAssignment) -> History {
    let keep = |id: OpId| {
        let op = h.op(id);
        !op.kind.is_read()
            || matches!(models.get(op.proc), ProcModel::Fixed(s) if s.total_store_order)
    };

    // Intra-process predecessor lists over the kept subset: walk the
    // program-order edges backwards, stopping at the first kept
    // operation on each path (its own predecessors follow transitively).
    let mut preds: Vec<Vec<OpId>> = vec![Vec::new(); h.len()];
    for &(a, b) in h.po_edges() {
        preds[b.index()].push(a);
    }
    // `seen[o] == id` marks `o` visited in the walk from `id`.
    let mut seen = vec![u32::MAX; h.len()];
    let mut kept_preds = |id: OpId| -> Vec<OpId> {
        let mut out = Vec::new();
        let mut stack = preds[id.index()].clone();
        while let Some(p) = stack.pop() {
            if seen[p.index()] == id.0 {
                continue;
            }
            seen[p.index()] = id.0;
            if keep(p) {
                out.push(p);
            } else {
                stack.extend_from_slice(&preds[p.index()]);
            }
        }
        out
    };

    let mut b = HistoryBuilder::new(h.nprocs());
    let mut locs: Vec<Loc> = h.ops().iter().filter_map(|op| op.kind.loc()).collect();
    locs.sort_by_key(|l| l.0);
    locs.dedup();
    for loc in locs {
        b.set_initial(loc, h.initial(loc));
    }

    let mut new_id: Vec<Option<OpId>> = vec![None; h.len()];
    for (id, op) in h.iter() {
        if !keep(id) {
            continue;
        }
        let kept: Vec<OpId> =
            kept_preds(id).into_iter().map(|p| new_id[p.index()].expect("preds precede")).collect();
        new_id[id.index()] = Some(b.push_after(op.proc, op.kind.clone(), &kept));
    }
    b.build().expect("projection of a well-formed history is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_causal, check_mixed, check_pram, ViolationKind};
    use crate::litmus;
    use crate::value::Value;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    fn uniform(h: &History, spec: ModelSpec) -> Result<CheckReport, CheckError> {
        check_model(h, &ModelAssignment::uniform(h.nprocs(), spec))
    }

    #[test]
    fn names_round_trip() {
        for m in ProcModel::ALL {
            assert_eq!(ProcModel::named(m.name()), Some(*m), "{m}");
        }
        assert_eq!(ProcModel::named("banana"), None);
    }

    #[test]
    fn legacy_constants_reproduce_hand_coded_checkers() {
        for h in [
            litmus::causality_chain(ReadLabel::Pram),
            litmus::causality_chain(ReadLabel::Causal),
            litmus::store_buffer(),
            litmus::write_order_disagreement(),
            litmus::iriw(),
            litmus::fifo_violation(),
        ] {
            assert_eq!(uniform(&h, ModelSpec::PRAM), check_pram(&h).map_err(promote), "pram");
            assert_eq!(uniform(&h, ModelSpec::CAUSAL), check_causal(&h).map_err(promote), "causal");
            assert_eq!(
                check_model(&h, &ModelAssignment::mixed(h.nprocs())),
                check_mixed(&h).map_err(promote),
                "mixed"
            );
        }
    }

    /// Legacy checkers never emit global violations, so their reports
    /// compare equal to the declarative ones as-is.
    fn promote(e: CheckError) -> CheckError {
        e
    }

    #[test]
    fn sc_spec_rejects_what_the_sc_checker_rejects() {
        let h = litmus::store_buffer();
        let err = uniform(&h, ModelSpec::SC).unwrap_err();
        let CheckError::Violations(r) = err else { panic!() };
        assert_eq!(r.global, vec![GlobalViolation::NotSerializable]);
        assert!(r.violations.is_empty(), "sc reads are judged by serialization only");

        let ok = litmus::causality_chain(ReadLabel::Causal);
        // The chain violates causal (stale read), hence also SC — but the
        // chain with the final read fixed is serializable; use a trivially
        // serializable history instead.
        assert!(uniform(&ok, ModelSpec::SC).is_err());
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        assert!(uniform(&b.build().unwrap(), ModelSpec::SC).is_ok());
    }

    #[test]
    fn slow_accepts_fifo_violation_across_locations() {
        // p0: w(x)1; w(y)1. p1 reads y=1 then x=0 — PRAM forbids (po of
        // p0 is global), slow allows (different locations).
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(1), ReadLabel::Pram, Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(0));
        let h = b.build().unwrap();
        assert!(uniform(&h, ModelSpec::PRAM).is_err());
        assert!(uniform(&h, ModelSpec::SLOW).is_ok());
    }

    #[test]
    fn slow_still_orders_same_location_writes() {
        let h = litmus::fifo_violation();
        let err = uniform(&h, ModelSpec::SLOW).unwrap_err();
        let CheckError::Violations(r) = err else { panic!() };
        assert!(matches!(r.violations[0].kind, ViolationKind::Overwritten { .. }));
    }

    #[test]
    fn weak_ordering_ignores_unsynchronized_order_but_sees_sync_chains() {
        // Unsynchronized: the p0 write order is invisible to p1.
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(1), ReadLabel::Pram, Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(0));
        assert!(uniform(&b.build().unwrap(), ModelSpec::WEAK_ORDERING).is_ok());

        // The transitive lock chain (invisible to PRAM) binds weak
        // ordering: sync is Full.
        let h = litmus::lock_transitive_chain();
        assert!(uniform(&h, ModelSpec::PRAM).is_ok());
        assert!(uniform(&h, ModelSpec::WEAK_ORDERING).is_err());
    }

    #[test]
    fn processor_rejects_write_order_disagreement() {
        // Two observers see two concurrent same-location writes in
        // opposite orders: fine under PRAM/causal, a coherence cycle
        // under processor consistency.
        let h = litmus::write_order_disagreement();
        assert!(uniform(&h, ModelSpec::PRAM).is_ok());
        assert!(uniform(&h, ModelSpec::CAUSAL).is_ok());
        let err = uniform(&h, ModelSpec::PROCESSOR).unwrap_err();
        let CheckError::Violations(r) = err else { panic!() };
        assert!(matches!(r.global[0], GlobalViolation::CoherenceCycle { .. }));
    }

    #[test]
    fn heterogeneous_assignment_judges_each_process_by_its_own_spec() {
        // The causality litmus with causal-labeled reads: the stale
        // reader p2 violates CAUSAL but not PRAM — so the verdict flips
        // with p2's assigned model, regardless of the recorded label.
        let h = litmus::causality_chain(ReadLabel::Causal);
        let strict = ModelAssignment::per_proc(vec![
            ProcModel::Fixed(ModelSpec::PRAM),
            ProcModel::Fixed(ModelSpec::PRAM),
            ProcModel::Fixed(ModelSpec::CAUSAL),
        ]);
        assert!(check_model(&h, &strict).is_err());
        let lax = ModelAssignment::per_proc(vec![
            ProcModel::Fixed(ModelSpec::CAUSAL),
            ProcModel::Fixed(ModelSpec::CAUSAL),
            ProcModel::Fixed(ModelSpec::PRAM),
        ]);
        assert!(check_model(&h, &lax).is_ok());
    }

    #[test]
    fn partial_tso_projects_only_tso_reads() {
        // Store-buffer: both reads stale. Uniform SC rejects; making one
        // process SC and the other PRAM keeps only one stale read in the
        // serialization check, and a serialization exists for that half.
        let h = litmus::store_buffer();
        assert!(uniform(&h, ModelSpec::SC).is_err());
        let half = ModelAssignment::per_proc(vec![
            ProcModel::Fixed(ModelSpec::SC),
            ProcModel::Fixed(ModelSpec::PRAM),
        ]);
        assert!(check_model(&h, &half).is_ok());
    }

    #[test]
    fn lattice_is_monotone_on_the_litmus_corpus() {
        // A history failing a weaker point must fail every stronger
        // point (relations only grow along the lattice order).
        let chains: &[&[ModelSpec]] = &[
            &[ModelSpec::SLOW, ModelSpec::PRAM, ModelSpec::CAUSAL, ModelSpec::SC],
            &[ModelSpec::WEAK_ORDERING, ModelSpec::CAUSAL],
            &[ModelSpec::PRAM, ModelSpec::PROCESSOR],
        ];
        for h in [
            litmus::causality_chain(ReadLabel::Pram),
            litmus::causality_chain(ReadLabel::Causal),
            litmus::store_buffer(),
            litmus::write_order_disagreement(),
            litmus::iriw(),
            litmus::fifo_violation(),
            litmus::lock_transitive_chain(),
        ] {
            for chain in chains {
                let mut failed = false;
                for spec in *chain {
                    let fails = uniform(&h, *spec).is_err();
                    assert!(
                        fails || !failed,
                        "{} accepted a history that weaker {chain:?} rejected",
                        spec.name
                    );
                    failed = failed || fails;
                }
            }
        }
    }

    #[test]
    fn counter_reads_follow_the_spec_relation() {
        // The counter-visibility rule rides on the same relation. An
        // await transfers the flag write but, under weak ordering, not
        // the unfenced update before it — causal forbids the stale
        // counter read, weak ordering allows it.
        let mut b = HistoryBuilder::new(2);
        b.set_initial(Loc(0), Value::Int(2));
        b.push_update(p(0), Loc(0), -1);
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_await(p(1), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(2));
        let h = b.build().unwrap();
        assert!(uniform(&h, ModelSpec::CAUSAL).is_err());
        assert!(uniform(&h, ModelSpec::WEAK_ORDERING).is_ok(), "no fence after the update");

        // A barrier IS a fence on both sides: every point forbids the
        // stale read past it.
        let mut b = HistoryBuilder::new(2);
        b.set_initial(Loc(0), Value::Int(2));
        b.push_update(p(0), Loc(0), -1);
        b.push_barrier(p(0), crate::ids::BarrierId(0), crate::ids::BarrierRound(0));
        b.push_barrier(p(1), crate::ids::BarrierId(0), crate::ids::BarrierRound(0));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(2));
        let h = b.build().unwrap();
        for spec in [ModelSpec::CAUSAL, ModelSpec::WEAK_ORDERING, ModelSpec::PRAM, ModelSpec::SLOW]
        {
            assert!(uniform(&h, spec).is_err(), "{}", spec.name);
        }
    }
}
