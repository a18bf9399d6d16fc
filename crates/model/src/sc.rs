//! Sequential consistency (Definition 1): serialization replay, the
//! linear-time judgement against a server's write order, and an exact,
//! memoized search for a sequential serialization.
//!
//! A history is *sequentially consistent* if at least one serialization — a
//! total order on its operations respecting the causality relation `;` — is
//! a *sequential history*, i.e. every read returns the value written by the
//! most recent write in that order (Section 3.2 of the paper).
//!
//! Deciding this is NP-hard in general, so [`check_sequential`] is an exact
//! backtracking search with state memoization and an explicit budget; it is
//! intended for the litmus-sized histories used in tests. A history that
//! carries the order in which its central server applied the writes
//! ([`History::write_order`]) needs no search: [`crate::spec::check_model`]
//! decides it in linear time. For polynomially checkable *sufficient*
//! conditions use the Theorem 1 machinery in [`crate::commute`].

use std::collections::{HashMap, HashSet};

use crate::causality::{Causality, CausalityError};
use crate::graph::Digraph;
use crate::history::History;
use crate::ids::{Loc, OpId};
use crate::op::{Edge, OpKind};
use crate::value::Value;

/// Outcome of the sequential-consistency search.
#[derive(Clone, Debug, PartialEq)]
pub enum ScVerdict {
    /// A sequential serialization exists; the witness order is returned.
    SequentiallyConsistent(Vec<OpId>),
    /// No serialization of the history is sequential.
    NotSequentiallyConsistent,
    /// The search exhausted its state budget before deciding.
    Unknown,
}

impl ScVerdict {
    /// Returns `true` for [`ScVerdict::SequentiallyConsistent`].
    pub fn is_sc(&self) -> bool {
        matches!(self, ScVerdict::SequentiallyConsistent(_))
    }
}

/// Why replaying a serialization failed at some position.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The order is not a permutation of the history's operations.
    NotAPermutation,
    /// The order violates the causality relation at this position.
    CausalityViolated {
        /// Index in the order where the violation was detected.
        position: usize,
    },
    /// A read or await returned a value different from the current memory.
    ValueMismatch {
        /// Index in the order of the offending operation.
        position: usize,
        /// The value memory held at that point.
        expected: Value,
    },
    /// An update was applied to a non-integer value.
    UpdateOnNonInteger {
        /// Index in the order of the offending operation.
        position: usize,
    },
}

/// The generating edges of `;` — program order, `↦lock`, `↦bar`,
/// `↦await` and reads-from. `;` is their transitive closure.
fn generating_edges<'a>(
    h: &'a History,
    causality: &'a Causality<'_>,
) -> impl Iterator<Item = Edge> + 'a {
    h.po_edges()
        .iter()
        .chain(causality.lock_edges())
        .chain(causality.bar_edges())
        .chain(causality.await_edges())
        .chain(causality.rf_edges())
        .copied()
}

/// Replays `order` as a candidate sequential history.
///
/// Checks that the order is a permutation of the operations, respects `;`,
/// and that every read and await observes the most recent write.
///
/// # Errors
///
/// Returns the first [`ReplayError`] encountered.
pub fn replay_serialization(
    h: &History,
    causality: &Causality<'_>,
    order: &[OpId],
) -> Result<(), ReplayError> {
    if order.len() != h.len() {
        return Err(ReplayError::NotAPermutation);
    }
    let mut pos = vec![usize::MAX; h.len()];
    for (i, &o) in order.iter().enumerate() {
        if pos[o.index()] != usize::MAX {
            return Err(ReplayError::NotAPermutation);
        }
        pos[o.index()] = i;
    }
    // The order respects the closure iff it respects every generating edge.
    if let Some((a, _)) =
        generating_edges(h, causality).find(|&(a, b)| pos[a.index()] > pos[b.index()])
    {
        return Err(ReplayError::CausalityViolated { position: pos[a.index()] });
    }
    replay_values(h, order, |_| true)
}

/// Runs `order` against one memory, checking the value of every await
/// and of every read `judged` selects.
fn replay_values(
    h: &History,
    order: &[OpId],
    judged: impl Fn(OpId) -> bool,
) -> Result<(), ReplayError> {
    let mut mem: HashMap<Loc, Value> = HashMap::new();
    let read_mem =
        |mem: &HashMap<Loc, Value>, loc: Loc| mem.get(&loc).copied().unwrap_or(h.initial(loc));
    for (i, &o) in order.iter().enumerate() {
        match &h.op(o).kind {
            OpKind::Read { loc, value, .. } | OpKind::Await { loc, value, .. } => {
                let cur = read_mem(&mem, *loc);
                if cur != *value && (!h.op(o).kind.is_read() || judged(o)) {
                    return Err(ReplayError::ValueMismatch { position: i, expected: cur });
                }
            }
            OpKind::Write { loc, value, .. } => {
                mem.insert(*loc, *value);
            }
            OpKind::Update { loc, delta, .. } => {
                let cur = read_mem(&mem, *loc);
                let Some(next) = cur.checked_add(*delta) else {
                    return Err(ReplayError::UpdateOnNonInteger { position: i });
                };
                mem.insert(*loc, next);
            }
            OpKind::Lock { .. } | OpKind::Unlock { .. } | OpKind::Barrier { .. } => {}
        }
    }
    Ok(())
}

/// Judges `h` against the write order its central server recorded
/// ([`History::write_order`]); `None` when it carries none.
///
/// With the per-location write order `co` given, the history is
/// sequentially consistent *in that order* iff
/// `po ∪ sync ∪ rf ∪ co ∪ fr` is acyclic, where an access's `fr` edge
/// points to the write `co`-after the one it observed (Shasha & Snir; the
/// axiomatic form of Alglave et al., "Herding cats"). The check builds
/// that graph, takes one topological order and replays it, so a pass is a
/// serialization found, never a trust in the witness. Only the reads
/// `judged` selects get `rf`/`fr` edges and a value check — the reads of
/// the processes demanding a total store order; every await, being a
/// synchronization operation, gets both.
pub(crate) fn serializable_in_write_order(
    h: &History,
    causality: &Causality<'_>,
    judged: impl Fn(OpId) -> bool,
) -> Option<bool> {
    let order = h.write_order()?;
    let n = h.len();
    let mut g = Digraph::new(n);
    let mut add = |(a, b): Edge| g.add_edge(a.index(), b.index());
    h.po_edges().iter().copied().for_each(&mut add);
    let sync = causality.lock_edges().iter().chain(causality.bar_edges());
    sync.chain(causality.await_edges()).copied().for_each(&mut add);
    causality.rf_edges().iter().copied().filter(|&(_, r)| judged(r)).for_each(&mut add);

    // `co`: each write's position in its location's order, its successor
    // there, and each location's first write.
    let mut co_rank = vec![0u32; n];
    let mut co_next: Vec<Option<OpId>> = vec![None; n];
    let mut first: HashMap<Loc, OpId> = HashMap::with_capacity(order.len());
    for (&loc, writes) in order {
        let ops = writes.iter().map(|&w| h.write_op(w).expect("build checked the write order"));
        let mut prev = None;
        for (rank, o) in ops.enumerate() {
            co_rank[o.index()] = rank as u32;
            match prev.replace(o) {
                Some(p) => {
                    co_next[p.index()] = Some(o);
                    add((p, o));
                }
                None => {
                    first.insert(loc, o);
                }
            }
        }
    }
    // `fr`: an access precedes the write `co`-after the one it observed.
    let overwriter = |loc: Loc, observed: Option<OpId>| match observed {
        Some(w) => co_next[w.index()],
        None => first.get(&loc).copied(),
    };
    for (id, op) in h.iter() {
        let observed = match &op.kind {
            OpKind::Read { .. } if judged(id) => h.write_op(h.reads_from(id)),
            OpKind::Await { .. } => {
                let sources = h.await_sources(id).iter().filter_map(|&w| h.write_op(w));
                sources.max_by_key(|o| co_rank[o.index()])
            }
            _ => continue,
        };
        let loc = op.kind.loc().expect("reads and awaits have a location");
        if let Some(s) = overwriter(loc, observed) {
            add((id, s));
        }
    }

    let Ok(topo) = g.topo_order() else { return Some(false) };
    let topo: Vec<OpId> = topo.into_iter().map(|x| OpId(x as u32)).collect();
    Some(replay_values(h, &topo, judged).is_ok())
}

/// Default state budget for [`check_sequential`].
pub const DEFAULT_STATE_BUDGET: usize = 2_000_000;

/// Searches for a sequential serialization of `h` with the default budget.
///
/// # Errors
///
/// Returns a [`CausalityError`] if `;` is cyclic.
pub fn check_sequential(h: &History) -> Result<ScVerdict, CausalityError> {
    check_sequential_with_budget(h, DEFAULT_STATE_BUDGET)
}

/// Searches for a sequential serialization of `h`, visiting at most
/// `max_states` distinct search states.
///
/// The search walks serializations respecting `;` and prunes any prefix in
/// which a read or await disagrees with the current memory; `(executed
/// set, memory)` pairs are memoized so equivalent prefixes are explored
/// once.
///
/// # Errors
///
/// Returns a [`CausalityError`] if `;` is cyclic.
pub fn check_sequential_with_budget(
    h: &History,
    max_states: usize,
) -> Result<ScVerdict, CausalityError> {
    Ok(search(h, &Causality::new(h)?, max_states))
}

/// [`check_sequential_with_budget`] over an already built `causality`.
pub(crate) fn search(h: &History, causality: &Causality<'_>, max_states: usize) -> ScVerdict {
    let n = h.len();
    if n == 0 {
        return ScVerdict::SequentiallyConsistent(Vec::new());
    }

    // The generating DAG of ; (same reachability, fewer edges).
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg: Vec<u32> = vec![0; n];
    for (a, b) in generating_edges(h, causality) {
        succs[a.index()].push(b.0);
        indeg[b.index()] += 1;
    }

    let mut searcher = Searcher {
        h,
        succs,
        indeg,
        mem: HashMap::new(),
        done: vec![false; n],
        order: Vec::with_capacity(n),
        visited: HashSet::new(),
        states: 0,
        max_states,
    };
    if searcher.run() {
        ScVerdict::SequentiallyConsistent(searcher.order)
    } else if searcher.states >= searcher.max_states {
        ScVerdict::Unknown
    } else {
        ScVerdict::NotSequentiallyConsistent
    }
}

/// Memoization key: a bitset of completed ops plus the memory contents
/// they produced.
type StateKey = (Vec<u64>, Vec<(Loc, Value)>);

/// What applying an operation overwrote: the location and its previous
/// memory entry, for writes and updates.
type Undo = Option<(Loc, Option<Value>)>;

/// One level of the search: the operations enabled on entry, the next one
/// to try, and the one currently applied.
struct Frame {
    frontier: Vec<usize>,
    next: usize,
    applied: Option<(usize, Undo)>,
}

/// What entering a search state found.
enum Entry {
    /// Every operation is placed: a sequential serialization.
    Complete,
    /// Out of budget, or the state was explored before.
    Pruned,
    /// A fresh state to explore.
    Open(Frame),
}

struct Searcher<'h> {
    h: &'h History,
    succs: Vec<Vec<u32>>,
    indeg: Vec<u32>,
    mem: HashMap<Loc, Value>,
    done: Vec<bool>,
    order: Vec<OpId>,
    visited: HashSet<StateKey>,
    states: usize,
    max_states: usize,
}

impl Searcher<'_> {
    fn state_key(&self) -> StateKey {
        let mut bits = vec![0u64; self.done.len().div_ceil(64)];
        for (i, &d) in self.done.iter().enumerate() {
            if d {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        let mut mem: Vec<(Loc, Value)> = self.mem.iter().map(|(&l, &v)| (l, v)).collect();
        mem.sort_by_key(|&(l, _)| l);
        (bits, mem)
    }

    fn read_mem(&self, loc: Loc) -> Value {
        self.mem.get(&loc).copied().unwrap_or(self.h.initial(loc))
    }

    /// Depth-first over the serializations, on an explicit stack (a
    /// recursion per operation overflows a thread stack on long
    /// histories). Returns `true` once a full sequential serialization is
    /// in `order`.
    fn run(&mut self) -> bool {
        let mut stack = match self.enter() {
            Entry::Complete => return true,
            Entry::Pruned => return false,
            Entry::Open(frame) => vec![frame],
        };
        while let Some(frame) = stack.last_mut() {
            if let Some((i, undo)) = frame.applied.take() {
                self.retract(i, undo);
            }
            let Some(&i) = frame.frontier.get(frame.next) else {
                stack.pop();
                continue;
            };
            frame.next += 1;
            let Some(undo) = self.apply(i) else { continue };
            frame.applied = Some((i, undo));
            match self.enter() {
                Entry::Complete => return true,
                Entry::Pruned => {}
                Entry::Open(child) => stack.push(child),
            }
        }
        false
    }

    fn enter(&mut self) -> Entry {
        if self.order.len() == self.done.len() {
            return Entry::Complete;
        }
        if self.states >= self.max_states {
            return Entry::Pruned;
        }
        self.states += 1;
        if !self.visited.insert(self.state_key()) {
            return Entry::Pruned;
        }
        let frontier =
            (0..self.done.len()).filter(|&i| !self.done[i] && self.indeg[i] == 0).collect();
        Entry::Open(Frame { frontier, next: 0, applied: None })
    }

    /// Places operation `i` next, or returns `None` if a read or await
    /// would disagree with memory there.
    fn apply(&mut self, i: usize) -> Option<Undo> {
        let undo = match &self.h.op(OpId(i as u32)).kind {
            OpKind::Read { loc, value, .. } | OpKind::Await { loc, value, .. } => {
                if self.read_mem(*loc) != *value {
                    return None;
                }
                None
            }
            OpKind::Write { loc, value, .. } => Some((*loc, self.mem.insert(*loc, *value))),
            OpKind::Update { loc, delta, .. } => {
                let next = self.read_mem(*loc).checked_add(*delta)?;
                Some((*loc, self.mem.insert(*loc, next)))
            }
            _ => None,
        };
        self.done[i] = true;
        self.order.push(OpId(i as u32));
        for &t in &self.succs[i] {
            self.indeg[t as usize] -= 1;
        }
        Some(undo)
    }

    /// Takes operation `i`, the last one placed, back out.
    fn retract(&mut self, i: usize, undo: Undo) {
        for &t in &self.succs[i] {
            self.indeg[t as usize] += 1;
        }
        self.order.pop();
        self.done[i] = false;
        if let Some((loc, prev)) = undo {
            match prev {
                Some(v) => self.mem.insert(loc, v),
                None => self.mem.remove(&loc),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ProcId, WriteId};
    use crate::op::ReadLabel;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn empty_history_is_sc() {
        let h = HistoryBuilder::new(0).build().unwrap();
        assert!(check_sequential(&h).unwrap().is_sc());
    }

    #[test]
    fn single_write_read_is_sc() {
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        let verdict = check_sequential(&h).unwrap();
        let ScVerdict::SequentiallyConsistent(order) = &verdict else { panic!("{verdict:?}") };
        let causality = Causality::new(&h).unwrap();
        replay_serialization(&h, &causality, order).unwrap();
    }

    #[test]
    fn read_your_writes_out_of_order_is_not_sc() {
        // p0: w(x)1; w(x)2. p1: r(x)2; r(x)1 — no serialization works.
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(0), Value::Int(2));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(2));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        assert_eq!(check_sequential(&h).unwrap(), ScVerdict::NotSequentiallyConsistent);
    }

    #[test]
    fn opposite_orders_of_concurrent_writes_are_not_sc() {
        // Causal but not SC: two observers disagree on the write order.
        let mut b = HistoryBuilder::new(4);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(1), Loc(0), Value::Int(2));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, Value::Int(1));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, Value::Int(2));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, Value::Int(2));
        b.push_read(p(3), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        assert!(crate::check::check_causal(&h).is_ok());
        assert_eq!(check_sequential(&h).unwrap(), ScVerdict::NotSequentiallyConsistent);
    }

    #[test]
    fn dekker_litmus_all_zero_is_not_sc() {
        // w(x)1; r(y)0 || w(y)1; r(x)0 — the classic store-buffer outcome,
        // forbidden by SC, allowed by causal memory.
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(0), Loc(1), ReadLabel::Causal, Value::Int(0));
        b.push_write(p(1), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(0));
        let h = b.build().unwrap();
        assert!(crate::check::check_causal(&h).is_ok());
        assert_eq!(check_sequential(&h).unwrap(), ScVerdict::NotSequentiallyConsistent);
    }

    #[test]
    fn interleaving_with_constraints_is_found() {
        // p0: w(x)1; w(y)1. p1: r(y)1; w(x)2. p2: r(x)2; r(x)... must
        // order p1's write after p0's both. A consistent outcome:
        let mut b = HistoryBuilder::new(3);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_read(p(1), Loc(1), ReadLabel::Causal, Value::Int(1));
        b.push_write(p(1), Loc(0), Value::Int(2));
        b.push_read(p(2), Loc(0), ReadLabel::Causal, Value::Int(2));
        let h = b.build().unwrap();
        assert!(check_sequential(&h).unwrap().is_sc());
    }

    #[test]
    fn updates_serialize_like_increments() {
        // Two concurrent decrements from 2; a reader sees 0 after awaiting.
        let mut b = HistoryBuilder::new(3);
        b.set_initial(Loc(0), Value::Int(2));
        let (_, u0) = b.push_update(p(0), Loc(0), -1);
        let (_, u1) = b.push_update(p(1), Loc(0), -1);
        b.push(p(2), OpKind::Await { loc: Loc(0), value: Value::Int(0), writers: vec![u0, u1] });
        let h = b.build().unwrap();
        assert!(check_sequential(&h).unwrap().is_sc());
    }

    #[test]
    fn replay_rejects_bad_orders() {
        let mut b = HistoryBuilder::new(2);
        let (w, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let r = b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        let causality = Causality::new(&h).unwrap();
        // Read before write: value mismatch or causality violation.
        let err = replay_serialization(&h, &causality, &[r, w]).unwrap_err();
        assert!(matches!(err, ReplayError::CausalityViolated { .. }));
        // Wrong length.
        assert_eq!(replay_serialization(&h, &causality, &[w]), Err(ReplayError::NotAPermutation));
        // Duplicates.
        assert_eq!(
            replay_serialization(&h, &causality, &[w, w]),
            Err(ReplayError::NotAPermutation)
        );
    }

    #[test]
    fn replay_detects_value_mismatch() {
        // Two concurrent writes; a read of the first placed after the
        // second in the serialization.
        let mut b = HistoryBuilder::new(3);
        let (w1, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let (w2, _) = b.push_write(p(1), Loc(0), Value::Int(2));
        let r = b.push_read(p(2), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        let causality = Causality::new(&h).unwrap();
        // Reads-from makes w1 ; r, but w2 is unordered: w1, w2, r violates
        // the value constraint only.
        let err = replay_serialization(&h, &causality, &[w1, w2, r]).unwrap_err();
        assert!(matches!(err, ReplayError::ValueMismatch { position: 2, .. }));
        replay_serialization(&h, &causality, &[w2, w1, r]).unwrap();
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_write(p(1), Loc(1), Value::Int(1));
        b.push_read(p(0), Loc(1), ReadLabel::Causal, Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        assert_eq!(check_sequential_with_budget(&h, 1).unwrap(), ScVerdict::Unknown);
    }

    #[test]
    fn sc_respects_barriers() {
        // A read of a pre-barrier value placed after the barrier cannot be
        // serialized before the write.
        let mut b = HistoryBuilder::new(2);
        b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_barrier(p(0), crate::BarrierId(0), crate::BarrierRound(0));
        b.push_barrier(p(1), crate::BarrierId(0), crate::BarrierRound(0));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(0));
        let h = b.build().unwrap();
        assert_eq!(check_sequential(&h).unwrap(), ScVerdict::NotSequentiallyConsistent);
    }

    /// `h` judged by its write order, every read judged.
    fn by_witness(h: &History) -> Option<bool> {
        serializable_in_write_order(h, &Causality::new(h).unwrap(), |_| true)
    }

    #[test]
    fn witness_accepts_the_order_the_server_applied() {
        // p0: w(x)1; r(x)2. p1: w(x)2. Server order w1, w2.
        let mut b = HistoryBuilder::new(2);
        let (_, w1) = b.push_write(p(0), Loc(0), Value::Int(1));
        let (_, w2) = b.push_write(p(1), Loc(0), Value::Int(2));
        b.push_read_from(p(0), Loc(0), ReadLabel::Causal, Value::Int(2), w2);
        let ordered = |order: Vec<WriteId>| {
            let mut b = b.clone();
            b.set_write_order(Loc(0), order);
            b.build().unwrap()
        };
        assert_eq!(by_witness(&ordered(vec![w1, w2])), Some(true));
        // Answered with an overwritten value: w1 ->po r ->fr w1.
        assert_eq!(by_witness(&ordered(vec![w2, w1])), Some(false));
        assert_eq!(by_witness(&b.build().unwrap()), None, "no write order, no witness");
    }

    #[test]
    fn witness_places_awaits_before_the_next_write() {
        // An await of the first of two writes to a flag replays only
        // between the two: its `fr` edge puts it there.
        let mut b = HistoryBuilder::new(2);
        let (_, f1) = b.push_write(p(0), Loc(1), Value::Int(1));
        let (_, f2) = b.push_write(p(0), Loc(1), Value::Int(2));
        b.push(p(1), OpKind::Await { loc: Loc(1), value: Value::Int(1), writers: vec![f1] });
        b.set_write_order(Loc(1), vec![f1, f2]);
        assert_eq!(by_witness(&b.build().unwrap()), Some(true));
    }

    #[test]
    fn witness_replays_counters_in_server_order() {
        let mut b = HistoryBuilder::new(3);
        let (_, u0) = b.push_update(p(0), Loc(0), -1);
        let (_, u1) = b.push_update(p(1), Loc(0), -1);
        b.push_read_from(p(2), Loc(0), ReadLabel::Causal, Value::Int(-1), u1);
        let ordered = |order: Vec<WriteId>| {
            let mut b = b.clone();
            b.set_write_order(Loc(0), order);
            by_witness(&b.build().unwrap())
        };
        // The read saw one update, the one the server applied first.
        assert_eq!(ordered(vec![u1, u0]), Some(true));
        assert_eq!(ordered(vec![u0, u1]), Some(false));
    }

    #[test]
    fn long_histories_search_on_a_small_stack() {
        // A sequential run of 10 000 operations, no write order: the
        // search descends once per operation, which a recursion per
        // operation cannot do on a 2 MiB thread stack.
        let mut b = HistoryBuilder::new(2);
        let mut last: Vec<Option<(WriteId, i64)>> = vec![None; 8];
        for i in 0..10_000u32 {
            let (proc, loc) = (p(i / 3 % 2), Loc(i * 7 % 8));
            let slot = &mut last[loc.index()];
            if i % 3 == 0 {
                let (_, w) = b.push_write(proc, loc, Value::Int(i64::from(i) + 1));
                *slot = Some((w, i64::from(i) + 1));
            } else {
                let (w, v) = slot.unwrap_or((WriteId::initial(loc), 0));
                b.push_read_from(proc, loc, ReadLabel::Causal, Value::Int(v), w);
            }
        }
        let h = b.build().unwrap();
        let verdict = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || check_sequential(&h).unwrap())
            .unwrap()
            .join()
            .expect("the search returns");
        assert!(verdict.is_sc());
    }
}
