//! Consistency checkers for causal, PRAM, and mixed histories
//! (Definitions 2, 3 and 4 of the paper).
//!
//! Given a well-formed [`History`], these functions decide whether every
//! read is legal under the corresponding definition. They are the test
//! oracle of the whole repository: every protocol execution recorded by the
//! runtime is replayed through them.
//!
//! # Counter objects
//!
//! The paper extends memory operations to abstract data types (Section 3
//! and the Cholesky discussion in Section 5.3). Reads of *counter*
//! locations (locations targeted by commutative updates) do not name a
//! single overwritable value, so Definitions 2/3 do not apply verbatim.
//! When a counter location has a uniform delta (the Cholesky case: all
//! decrements of 1) the checkers verify the equivalent visibility
//! invariant: the number of updates that causally precede the read is at
//! most the number of updates the returned value accounts for. Counter
//! reads outside that shape are skipped and reported in
//! [`CheckReport::skipped`].

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::causality::{Causality, CausalityError, Relation};
use crate::history::History;
use crate::ids::{Loc, OpId, WriteId};
use crate::op::{OpKind, ReadLabel};
use crate::spec::{check_model, ModelAssignment, ModelSpec};
use crate::value::Value;

/// A single consistency violation found by a checker.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The offending read.
    pub read: OpId,
    /// The label the read was judged under.
    pub judged_as: ReadLabel,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The ways a read can violate Definition 2 or 3.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationKind {
    /// The read returned a write that does not precede it in the relation
    /// (no `w ;i r`).
    WriterNotVisible {
        /// The write the read returned.
        writer: WriteId,
    },
    /// Some operation on the same location with a different value lies
    /// strictly between the writer and the read (`w ;i o ;i r`).
    Overwritten {
        /// The write the read returned.
        writer: WriteId,
        /// The intervening operation.
        by: OpId,
    },
    /// The read returned the initial value although a write on the
    /// location precedes it.
    StaleInitial {
        /// The preceding write (or differently-valued read).
        newer: OpId,
    },
    /// A counter read accounts for fewer updates than causally precede it.
    CounterMissingUpdates {
        /// Updates that precede the read in the relation.
        preceding: usize,
        /// Updates the returned value accounts for.
        accounted: usize,
    },
    /// A counter read's value is not representable as
    /// `initial + k · delta`.
    CounterValueUnreachable,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read {} (as {}): ", self.read, self.judged_as)?;
        match &self.kind {
            ViolationKind::WriterNotVisible { writer } => {
                write!(f, "returned {writer} which is not visible")
            }
            ViolationKind::Overwritten { writer, by } => {
                write!(f, "returned {writer} overwritten by {by}")
            }
            ViolationKind::StaleInitial { newer } => {
                write!(f, "returned the initial value despite visible {newer}")
            }
            ViolationKind::CounterMissingUpdates { preceding, accounted } => {
                write!(
                    f,
                    "counter read accounts for {accounted} updates but {preceding} precede it"
                )
            }
            ViolationKind::CounterValueUnreachable => {
                write!(f, "counter value unreachable from initial value")
            }
        }
    }
}

/// A violation of a whole-history property that no single read witnesses
/// (produced by the declarative validator, [`crate::spec::check_model`]).
#[derive(Clone, Debug, PartialEq)]
pub enum GlobalViolation {
    /// The writes to a location cannot be embedded in one total order
    /// consistent with program order and every coherent process's
    /// observations (cache coherence, the processor-consistency extra).
    CoherenceCycle {
        /// The incoherent location.
        loc: Loc,
    },
    /// No serialization of the history is sequentially consistent (the
    /// total-store-order property).
    NotSerializable,
}

impl fmt::Display for GlobalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalViolation::CoherenceCycle { loc } => {
                write!(f, "writes to {loc} admit no coherent total order")
            }
            GlobalViolation::NotSerializable => {
                write!(f, "no serialization of the history is sequentially consistent")
            }
        }
    }
}

/// The outcome of a checker run: violations plus reads that could not be
/// judged (mixed write/update locations).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckReport {
    /// All violations found, in operation order.
    pub violations: Vec<Violation>,
    /// Whole-history violations (coherence, total store order). The
    /// legacy per-definition checkers never produce these; only the
    /// declarative validator does.
    pub global: Vec<GlobalViolation>,
    /// Reads skipped because their location mixes plain writes with
    /// commutative updates or uses non-uniform deltas.
    pub skipped: Vec<OpId>,
}

impl CheckReport {
    /// Returns `true` if no violations were found.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty() && self.global.is_empty()
    }

    /// Converts the report into a `Result`, erring on any violation.
    pub fn into_result(self) -> Result<CheckReport, CheckError> {
        if self.is_consistent() {
            Ok(self)
        } else {
            Err(CheckError::Violations(self))
        }
    }
}

/// Error type of the consistency checkers.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckError {
    /// The history's causality relation is cyclic.
    Causality(CausalityError),
    /// Reads violating the checked definition were found.
    Violations(CheckReport),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Causality(e) => write!(f, "{e}"),
            CheckError::Violations(r) => {
                writeln!(f, "{} consistency violation(s):", r.violations.len() + r.global.len())?;
                for v in &r.violations {
                    writeln!(f, "  {v}")?;
                }
                for v in &r.global {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl From<CausalityError> for CheckError {
    fn from(e: CausalityError) -> Self {
        CheckError::Causality(e)
    }
}

/// Checks **mixed consistency** (Definition 4): every read labeled PRAM is
/// a PRAM read and every read labeled Causal is a causal read — the
/// uniform [`ModelAssignment::mixed`] through [`check_model`].
///
/// # Errors
///
/// Returns the violations found, or a causality error for cyclic histories.
pub fn check_mixed(h: &History) -> Result<CheckReport, CheckError> {
    check_model(h, &ModelAssignment::mixed(h.nprocs()))
}

/// Checks whether the history is a **causal history**: all reads are
/// causal reads, regardless of label (uniform [`ModelSpec::CAUSAL`]).
///
/// # Errors
///
/// Returns the violations found, or a causality error for cyclic histories.
pub fn check_causal(h: &History) -> Result<CheckReport, CheckError> {
    check_model(h, &ModelAssignment::uniform(h.nprocs(), ModelSpec::CAUSAL))
}

/// Checks whether the history is a **PRAM history**: all reads are PRAM
/// reads, regardless of label (uniform [`ModelSpec::PRAM`]).
///
/// # Errors
///
/// Returns the violations found, or a causality error for cyclic histories.
pub fn check_pram(h: &History) -> Result<CheckReport, CheckError> {
    check_model(h, &ModelAssignment::uniform(h.nprocs(), ModelSpec::PRAM))
}

/// Checks every read against its process's **group causality relation**
/// `;i,G` (the paper's PRAM↔causal spectrum, Section 3.2): `groups[i]` is
/// the group of process `i` and must contain it. Singleton groups give
/// Definition 3 (PRAM), the full process set gives Definition 2 (causal).
///
/// # Errors
///
/// Returns the violations found, or a causality error for cyclic
/// histories.
///
/// # Panics
///
/// Panics if `groups.len() != h.nprocs()` or a group omits its owner.
pub fn check_grouped(
    h: &History,
    groups: &[Vec<crate::ProcId>],
) -> Result<CheckReport, CheckError> {
    assert_eq!(groups.len(), h.nprocs(), "one group per process");
    let causality = Causality::new(h)?;
    let mut reads = vec![Vec::new(); h.nprocs()];
    for (id, op) in h.iter() {
        if let OpKind::Read { label, .. } = op.kind {
            reads[op.proc.index()].push((id, label));
        }
    }
    judge_reads(h, &Locations::new(h), &reads, |p| {
        causality.group_relation(crate::ProcId(p as u32), &groups[p])
    })
    .into_result()
}

/// What the history says about each location, gathered in one pass.
#[derive(Debug)]
pub(crate) struct Locations {
    /// Locations with plain writes.
    written: HashSet<Loc>,
    /// Counter locations (with commutative updates) and their delta, if
    /// every update has the same nonzero integer one. (Float counters are
    /// not value-checkable: apply order perturbs low bits, so reads of
    /// them are reported as skipped.)
    counters: HashMap<Loc, Option<i64>>,
}

impl Locations {
    pub(crate) fn new(h: &History) -> Self {
        let mut written = HashSet::new();
        let mut counters: HashMap<Loc, Option<i64>> = HashMap::new();
        for op in h.ops() {
            match op.kind {
                OpKind::Write { loc, .. } => {
                    written.insert(loc);
                }
                OpKind::Update { loc, delta, .. } => {
                    let uniform = counters.entry(loc).or_insert(delta.as_i64());
                    if *uniform != delta.as_i64() {
                        *uniform = None;
                    }
                }
                _ => {}
            }
        }
        for delta in counters.values_mut() {
            *delta = delta.filter(|&d| d != 0);
        }
        Locations { written, counters }
    }

    /// Locations with plain writes and no updates, in location order.
    pub(crate) fn plain_written(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> =
            self.written.iter().filter(|l| !self.counters.contains_key(l)).copied().collect();
        locs.sort_by_key(|l| l.0);
        locs
    }
}

/// What a read came to.
enum Outcome {
    Legal,
    Violating(Violation),
    Skipped,
}

/// Judges the reads of `groups[k]` (each with the label it is judged as)
/// against `relation(k)`, building one relation at a time, and reports in
/// operation order.
pub(crate) fn judge_reads(
    h: &History,
    locations: &Locations,
    groups: &[Vec<(OpId, ReadLabel)>],
    mut relation: impl FnMut(usize) -> Relation,
) -> CheckReport {
    let mut outcomes = Vec::new();
    for (k, reads) in groups.iter().enumerate() {
        if reads.is_empty() {
            continue;
        }
        let rel = relation(k);
        let tracks = Tracks::new(h, &rel);
        for &(read, judged_as) in reads {
            let OpKind::Read { loc, value, .. } = h.op(read).kind else {
                unreachable!("{read} is not a read")
            };
            let outcome = match locations.counters.get(&loc) {
                Some(_) if locations.written.contains(&loc) => Outcome::Skipped,
                Some(&delta) => match tracks.counter_read(h, delta, read, loc, value) {
                    Ok(None) => Outcome::Legal,
                    Ok(Some(kind)) => Outcome::Violating(Violation { read, judged_as, kind }),
                    Err(()) => Outcome::Skipped,
                },
                None => match tracks.plain_read(h, read, loc, value) {
                    None => Outcome::Legal,
                    Some(kind) => Outcome::Violating(Violation { read, judged_as, kind }),
                },
            };
            outcomes.push((read, outcome));
        }
    }
    outcomes.sort_unstable_by_key(|&(read, _)| read);
    let mut report = CheckReport::default();
    for (read, outcome) in outcomes {
        match outcome {
            Outcome::Legal => {}
            Outcome::Violating(v) => report.violations.push(v),
            Outcome::Skipped => report.skipped.push(read),
        }
    }
    report
}

/// One chain's member operations on one location, in chain order.
#[derive(Debug)]
struct Track {
    chain: usize,
    /// 1-based chain positions.
    pos: Vec<u32>,
    ops: Vec<OpId>,
    values: Vec<Value>,
    /// `next_other[j]`: the first index after `j` whose value differs
    /// from `values[j]` (`len` if none).
    next_other: Vec<u32>,
}

impl Track {
    /// The entries in `range` whose value is not `v`.
    fn others(&self, range: std::ops::Range<usize>, v: Value) -> impl Iterator<Item = OpId> + '_ {
        let mut j = range.start;
        std::iter::from_fn(move || {
            while j < range.end {
                if self.values[j] != v {
                    j += 1;
                    return Some(self.ops[j - 1]);
                }
                j = self.next_other[j] as usize;
            }
            None
        })
    }
}

/// The first index from which `holds` is true through the end of `xs`
/// (`holds` is monotone: false, then true), searched from the end in
/// doubling steps — reads mostly return recent writes, so the answer is
/// usually a few entries back.
fn gallop_back<T>(xs: &[T], holds: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (xs.len(), xs.len(), 1);
    while lo > 0 && holds(&xs[lo - 1]) {
        hi = lo - 1;
        lo = lo.saturating_sub(step);
        step *= 2;
    }
    // The boundary lies in lo..=hi: xs[lo - 1] fails (or lo == 0), xs[hi..] hold.
    lo + xs[lo..hi].partition_point(|x| !holds(x))
}

/// A relation's member reads and writes (`plain`) and its updates
/// (`updates`), split by location and chain: what judging a read needs,
/// with no scan of the history.
struct Tracks<'r> {
    rel: &'r Relation,
    plain: HashMap<Loc, Vec<Track>>,
    updates: HashMap<Loc, Vec<Track>>,
}

impl<'r> Tracks<'r> {
    fn new(h: &History, rel: &'r Relation) -> Self {
        let mut plain: HashMap<Loc, Vec<Track>> = HashMap::new();
        let mut updates: HashMap<Loc, Vec<Track>> = HashMap::new();
        for (chain, ops) in rel.chains().iter().enumerate() {
            for (k, &op) in ops.iter().enumerate() {
                let (by_loc, loc, value) = match h.op(op).kind {
                    OpKind::Write { loc, value, .. } | OpKind::Read { loc, value, .. } => {
                        (&mut plain, loc, value)
                    }
                    OpKind::Update { loc, delta, .. } => (&mut updates, loc, delta),
                    _ => continue,
                };
                let tracks = by_loc.entry(loc).or_default();
                if tracks.last().map(|t| t.chain) != Some(chain) {
                    tracks.push(Track {
                        chain,
                        pos: Vec::new(),
                        ops: Vec::new(),
                        values: Vec::new(),
                        next_other: Vec::new(),
                    });
                }
                let t = tracks.last_mut().expect("pushed above");
                t.pos.push(k as u32 + 1);
                t.ops.push(op);
                t.values.push(value);
            }
        }
        for t in plain.values_mut().flatten() {
            let len = t.values.len();
            t.next_other = vec![len as u32; len];
            for j in (0..len.saturating_sub(1)).rev() {
                t.next_other[j] =
                    if t.values[j + 1] != t.values[j] { j as u32 + 1 } else { t.next_other[j + 1] };
            }
        }
        Tracks { rel, plain, updates }
    }

    /// How many of the track's entries precede-or-are `x`: a prefix.
    fn preceding(&self, t: &Track, x: OpId) -> usize {
        let stamp = self.rel.stamp(t.chain, x);
        t.pos.partition_point(|&p| p <= stamp)
    }

    /// Definitions 2/3 for an ordinary read: the returned write must
    /// precede the read and no differently-valued operation on the
    /// location may lie strictly between them.
    ///
    /// Per chain, the operations the writer reaches are a suffix and the
    /// ones preceding the read a prefix, so each chain asks whether a
    /// differently-valued entry lies in one index range: a binary search
    /// for the read's end, a search back from it for the writer's, and one
    /// `next_other` jump. The writer and the read
    /// carry the read's value, so they never count. Only a violating read
    /// looks for its witness: the least such operation, by id.
    fn plain_read(&self, h: &History, read: OpId, loc: Loc, value: Value) -> Option<ViolationKind> {
        let writer = h.reads_from(read);
        let wop = if writer.is_initial() { None } else { h.write_op(writer) };
        if let Some(w) = wop {
            if !self.rel.precedes(w, read) {
                return Some(ViolationKind::WriterNotVisible { writer });
            }
        }
        let tracks = self.plain.get(&loc).map_or(&[][..], Vec::as_slice);
        let range = |t: &Track| {
            let end = self.preceding(t, read);
            let start = match wop {
                Some(w) => gallop_back(&t.ops[..end], |&o| self.rel.reaches(w, o)),
                // The initial write precedes everything.
                None => 0,
            };
            start..end
        };
        let differs = |t: &Track| {
            let r = range(t);
            !r.is_empty()
                && (t.values[r.start] != value || (t.next_other[r.start] as usize) < r.end)
        };
        if !tracks.iter().any(differs) {
            return None;
        }
        let by = tracks
            .iter()
            .filter_map(|t| t.others(range(t), value).min())
            .min()
            .expect("a differing entry was found");
        Some(match wop {
            Some(_) => ViolationKind::Overwritten { writer, by },
            None => ViolationKind::StaleInitial { newer: by },
        })
    }

    /// Counter-read visibility: with uniform delta `d`, the returned value
    /// `v = init + k·d` determines the number `k` of accounted updates;
    /// every update preceding the read in the relation must be accounted
    /// for. Returns `Err(())` when the read cannot be judged (non-uniform
    /// or non-integer delta, non-integer initial/returned value) —
    /// callers report those as skipped.
    fn counter_read(
        &self,
        h: &History,
        delta: Option<i64>,
        read: OpId,
        loc: Loc,
        value: Value,
    ) -> Result<Option<ViolationKind>, ()> {
        let delta = delta.ok_or(())?;
        let init = h.initial(loc).as_i64().ok_or(())?;
        let diff = value.as_i64().ok_or(())? - init;
        if diff % delta != 0 || diff / delta < 0 {
            return Ok(Some(ViolationKind::CounterValueUnreachable));
        }
        let accounted = (diff / delta) as usize;
        let updates = self.updates.get(&loc).map_or(&[][..], Vec::as_slice);
        let preceding = updates.iter().map(|t| self.preceding(t, read)).sum();
        Ok((preceding > accounted)
            .then_some(ViolationKind::CounterMissingUpdates { preceding, accounted }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::ProcId;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    /// The classic causality litmus: PRAM allows it, causal forbids it.
    fn causality_litmus(label: ReadLabel) -> History {
        let mut b = HistoryBuilder::new(3);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        b.push_write(p(1), Loc(1), Value::Int(2));
        b.push_read(p(2), Loc(1), label, Value::Int(2));
        b.push_read(p(2), Loc(0), label, Value::Int(0));
        b.build().unwrap()
    }

    #[test]
    fn litmus_is_pram_but_not_causal() {
        let h = causality_litmus(ReadLabel::Pram);
        assert!(check_pram(&h).is_ok());
        let err = check_causal(&h).unwrap_err();
        let CheckError::Violations(report) = err else { panic!() };
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(report.violations[0].kind, ViolationKind::StaleInitial { .. }));
    }

    #[test]
    fn mixed_respects_labels() {
        // Labeled PRAM: fine. Labeled causal: violation.
        assert!(check_mixed(&causality_litmus(ReadLabel::Pram)).is_ok());
        assert!(check_mixed(&causality_litmus(ReadLabel::Causal)).is_err());
    }

    #[test]
    fn fifo_violation_is_caught_by_pram() {
        // p0 writes x=1 then x=2; p1 reads 2 then 1 — violates FIFO order.
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(0), Value::Int(2));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(2));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(1));
        let h = b.build().unwrap();
        let err = check_pram(&h).unwrap_err();
        let CheckError::Violations(report) = err else { panic!() };
        assert!(matches!(report.violations[0].kind, ViolationKind::Overwritten { .. }));
    }

    #[test]
    fn own_reads_constrain_later_reads() {
        // A process that read v=2 cannot later read the older v=1
        // (its own read is part of ;i).
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(0), Value::Int(2));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(2));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        assert!(check_causal(&h).is_err());
    }

    #[test]
    fn concurrent_writes_may_be_read_in_any_order() {
        // w0(x)1 and w1(x)2 are concurrent; p2 and p3 may disagree on the
        // order under causal memory (this is what distinguishes causal
        // from sequential consistency).
        let mut b = HistoryBuilder::new(4);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(1), Loc(0), Value::Int(2));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, Value::Int(1));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, Value::Int(2));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, Value::Int(2));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        assert!(check_causal(&h).is_ok());
        assert!(check_pram(&h).is_ok());
    }

    #[test]
    fn reading_never_written_value_reports_not_visible() {
        // Builder would reject unresolvable reads, so record a writer whose
        // write never becomes visible: writer exists but is causally after.
        // Simplest stand-in: read returns a write that IS visible — force
        // WriterNotVisible via an await cycle-free but unordered pair is
        // impossible with rf in ;, so this kind only fires for counter-free
        // relations. Covered by construction: rf ⊆ ; makes the writer
        // always visible; assert exactly that.
        let mut b = HistoryBuilder::new(2);
        let (_, w) = b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read_from(p(1), Loc(0), ReadLabel::Causal, Value::Int(1), w);
        let h = b.build().unwrap();
        assert!(check_causal(&h).is_ok());
    }

    #[test]
    fn barrier_makes_stale_read_a_violation_even_under_pram() {
        // p0 writes before the barrier; p1 reads the initial value after
        // the barrier — illegal even for PRAM reads (↦bar is in ↦PRAM).
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_barrier(p(0), crate::BarrierId(0), crate::BarrierRound(0));
        b.push_barrier(p(1), crate::BarrierId(0), crate::BarrierRound(0));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(0));
        let h = b.build().unwrap();
        assert!(check_pram(&h).is_err());
        assert!(check_causal(&h).is_err());
    }

    #[test]
    fn lock_chain_is_weaker_for_pram_than_causal() {
        // Three critical sections: p0 writes x, p1 writes y (no x access),
        // p2 reads x stale. Causal forbids it (transitive); PRAM allows it
        // (only the immediate predecessor p1 is synchronized-with).
        let mut b = HistoryBuilder::new(3);
        let l = crate::LockId(0);
        use crate::LockMode::Write as W;
        b.push_lock(p(0), l, W);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_unlock(p(0), l, W);
        b.push_lock(p(1), l, W);
        b.push_write(p(1), Loc(1), Value::Int(2));
        b.push_unlock(p(1), l, W);
        b.push_lock(p(2), l, W);
        b.push_read(p(2), Loc(0), ReadLabel::Pram, Value::Int(0));
        b.push_unlock(p(2), l, W);
        let h = b.build().unwrap();
        assert!(check_pram(&h).is_ok(), "PRAM sees only the immediate predecessor");
        assert!(check_causal(&h).is_err(), "causal sees the transitive chain");
    }

    #[test]
    fn await_transfers_visibility() {
        // p0: w(x)5; w(flag)1. p1: await(flag=1); r(x) must see 5 under
        // causal AND under PRAM (direct dependency).
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(5));
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_await(p(1), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(0));
        let h = b.build().unwrap();
        assert!(check_pram(&h).is_err());
        assert!(check_causal(&h).is_err());
    }

    #[test]
    fn counter_reads_check_visibility() {
        // Two decrements; an await-free causal read that accounts for both.
        let mut b = HistoryBuilder::new(2);
        b.set_initial(Loc(0), Value::Int(2));
        b.push_update(p(0), Loc(0), -1);
        b.push_update(p(0), Loc(0), -1);
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(0));
        let h = b.build().unwrap();
        // p1 never observed the updates causally — value 0 accounts for
        // both updates, but neither precedes the read, so it's fine.
        assert!(check_causal(&h).is_ok());
    }

    #[test]
    fn counter_read_missing_visible_update_is_violation() {
        // p0 decrements, then p1 awaits on a flag written after the
        // decrement, then reads the counter as if nothing happened.
        let mut b = HistoryBuilder::new(2);
        b.set_initial(Loc(0), Value::Int(2));
        b.push_update(p(0), Loc(0), -1);
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_await(p(1), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(2));
        let h = b.build().unwrap();
        let err = check_causal(&h).unwrap_err();
        let CheckError::Violations(r) = err else { panic!() };
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::CounterMissingUpdates { preceding: 1, accounted: 0 }
        ));
    }

    #[test]
    fn counter_unreachable_value() {
        let mut b = HistoryBuilder::new(1);
        b.set_initial(Loc(0), Value::Int(4));
        b.push_update(p(0), Loc(0), -2);
        b.push_read(p(0), Loc(0), ReadLabel::Causal, Value::Int(3));
        let h = b.build().unwrap();
        let err = check_causal(&h).unwrap_err();
        let CheckError::Violations(r) = err else { panic!() };
        assert!(matches!(r.violations[0].kind, ViolationKind::CounterValueUnreachable));
    }

    #[test]
    fn mixed_write_update_location_is_skipped() {
        let mut b = HistoryBuilder::new(1);
        b.push_write(p(0), Loc(0), Value::Int(10));
        b.push_update(p(0), Loc(0), -1);
        b.push_read_from(p(0), Loc(0), ReadLabel::Causal, Value::Int(9), WriteId::new(p(0), 2));
        let h = b.build().unwrap();
        let report = check_causal(&h).unwrap();
        assert_eq!(report.skipped.len(), 1);
        assert!(report.is_consistent());
    }

    #[test]
    fn gallop_back_finds_the_boundary() {
        for len in 0..40 {
            for boundary in 0..=len {
                let xs: Vec<bool> = (0..len).map(|i| i >= boundary).collect();
                assert_eq!(gallop_back(&xs, |&x| x), boundary, "len {len}");
            }
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let h = causality_litmus(ReadLabel::Causal);
        let err = check_mixed(&h).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("violation"));
        assert!(text.contains("initial"));
    }
}
