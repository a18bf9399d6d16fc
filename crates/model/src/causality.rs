//! The causality relation `;` and its per-process restrictions.
//!
//! Section 3 of the paper: the causality relation of a history is the
//! transitive closure of the union of
//!
//! * the **program order** `→` (union of the per-process partial orders),
//! * the **reads-from** relation `|.`, and
//! * the **synchronization order** `↦ = ↦lock ∪ ↦bar ∪ ↦await`.
//!
//! Causal reads (Definition 2) are judged against `;i,C` — the causality
//! relation restricted to the operations of `p_i` plus all write and
//! synchronization operations of other processes.
//!
//! PRAM reads (Definition 3) are judged against `;i,P`, built in three
//! steps (Section 3.2):
//!
//! 1. take the **transitive reductions** `↦p_lock`, `↦p_bar`, `↦p_await`
//!    of the synchronization orders and union them into `↦PRAM`;
//! 2. keep only the edges of `↦PRAM` incident to operations of `p_i`
//!    (giving `↦i`) and likewise restrict `|.` to `|.i`;
//! 3. transitively close `→ ∪ ↦i ∪ |.i` and project onto all operations
//!    except reads of other processes.
//!
//! # Representation
//!
//! No relation here is a matrix. A [`Relation`] is its generating edges
//! turned into per-operation *stamps* in one topological pass — the
//! vector timestamps Section 6 names as the cheap form of `;`. The member
//! operations are split into chains, sequences in which each operation
//! reaches the next, and every operation records per chain the last
//! chain element that reaches it, so `a ; b` is one array lookup. Chains
//! are assigned greedily: an operation extends a chain of its own process
//! whose tail reaches it, or starts a new one. Every lattice point that
//! keeps other processes' program order (PRAM, causal, processor, mixed)
//! gets one chain per process; slow memory and weak ordering, which drop
//! part of it, get more. The same code builds all of them.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::graph::{CycleError, Digraph};
use crate::history::History;
use crate::ids::{Loc, OpId, ProcId};
use crate::op::{Edge, OpKind};

/// The causality structure of a history: the full relation `;`, the
/// synchronization orders, their transitive reductions, and factories for
/// the per-process relations.
///
/// # Examples
///
/// ```
/// use mc_model::{Causality, HistoryBuilder, Loc, ProcId, ReadLabel, Value};
/// let mut b = HistoryBuilder::new(2);
/// let (w, _) = b.push_write(ProcId(0), Loc(0), Value::Int(1));
/// let r = b.push_read(ProcId(1), Loc(0), ReadLabel::Causal, Value::Int(1));
/// let h = b.build()?;
/// let c = Causality::new(&h)?;
/// assert!(c.precedes(w, r)); // via reads-from
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Causality<'h> {
    h: &'h History,
    /// A topological order of `;`'s generating graph. Every relation
    /// built here is a subgraph of it, so this one order serves them all.
    topo: Vec<u32>,
    /// `;` itself, every operation a member, and program order alone —
    /// built on first query: the checkers only need the edges.
    full: OnceLock<Relation>,
    po: OnceLock<Relation>,
    /// Full synchronization-order generating edges, per type.
    lock_edges: Vec<Edge>,
    bar_edges: Vec<Edge>,
    await_edges: Vec<Edge>,
    /// Transitive reductions, per type (the `↦p_*` relations).
    reduced_lock: Vec<Edge>,
    reduced_bar: Vec<Edge>,
    reduced_await: Vec<Edge>,
    /// Reads-from edges `w |. r` (non-initial writers only).
    rf_edges: Vec<Edge>,
}

/// Error building a causality relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CausalityError {
    /// The causality relation has a cycle (the paper restricts attention to
    /// acyclic histories; a cycle means the recording is corrupt).
    Cyclic(CycleError),
}

impl fmt::Display for CausalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalityError::Cyclic(e) => write!(f, "causality relation is cyclic: {e}"),
        }
    }
}

impl std::error::Error for CausalityError {}

impl From<CycleError> for CausalityError {
    fn from(e: CycleError) -> Self {
        CausalityError::Cyclic(e)
    }
}

/// The chain of a non-member.
const NO_CHAIN: u32 = u32::MAX;

/// A restricted, transitively closed relation over a subset of a history's
/// operations — the concrete form of `;i,C` and `;i,P` — stored as a
/// chain decomposition of its members plus one stamp per operation and
/// chain (see the module docs).
#[derive(Debug)]
pub struct Relation {
    members: Vec<bool>,
    /// Per operation: its chain and 1-based position in it (`NO_CHAIN`
    /// for non-members).
    at: Vec<(u32, u32)>,
    /// The members, chain by chain, in chain order.
    chains: Vec<Vec<OpId>>,
    /// `stamps[c][x]`: the 1-based position of the last operation of
    /// chain `c` that reaches or is `x`; 0 if none does.
    stamps: Vec<Vec<u32>>,
}

impl Relation {
    /// Closes `edges` over `h`'s operations, visiting them in `topo` (a
    /// topological order of a graph containing `edges`). Non-members get
    /// stamps too, so paths through them count, but join no chain.
    fn build(
        h: &History,
        topo: &[u32],
        members: Vec<bool>,
        edges: impl Iterator<Item = Edge> + Clone,
    ) -> Relation {
        let n = h.len();
        let preds = Adjacency::new(n, edges.map(|(a, b)| (b, a)));
        let mut rel = Relation {
            members,
            at: vec![(NO_CHAIN, 0); n],
            chains: Vec::new(),
            stamps: Vec::new(),
        };
        let mut own: Vec<Vec<usize>> = vec![Vec::new(); h.nprocs()];
        for &x in topo {
            let x = x as usize;
            for &y in preds.of(x) {
                for col in &mut rel.stamps {
                    col[x] = col[x].max(col[y.index()]);
                }
            }
            if !rel.members[x] {
                continue;
            }
            // A chain's tail reaches x iff x's stamp there is its length.
            let mine = &mut own[h.ops()[x].proc.index()];
            let found = mine
                .iter()
                .rev()
                .copied()
                .find(|&c| rel.stamps[c][x] as usize == rel.chains[c].len());
            let c = found.unwrap_or_else(|| {
                rel.chains.push(Vec::new());
                rel.stamps.push(vec![0; n]);
                mine.push(rel.chains.len() - 1);
                rel.chains.len() - 1
            });
            rel.chains[c].push(OpId(x as u32));
            let pos = rel.chains[c].len() as u32;
            rel.at[x] = (c as u32, pos);
            rel.stamps[c][x] = pos;
        }
        rel
    }

    /// Returns `true` if `op` belongs to the restricted operation set.
    pub fn contains(&self, op: OpId) -> bool {
        self.members[op.index()]
    }

    /// Returns `true` if `a` strictly precedes `b` in the relation.
    ///
    /// Both operations must be members; pairs involving non-members are
    /// never related.
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        a != b && self.contains(a) && self.contains(b) && self.reaches(a, b)
    }

    /// Iterates over the member operations.
    pub fn members(&self) -> impl Iterator<Item = OpId> + '_ {
        self.members.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| OpId(i as u32))
    }

    /// The number of chains the members were split into.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// The members, chain by chain, each chain in order.
    pub(crate) fn chains(&self) -> &[Vec<OpId>] {
        &self.chains
    }

    /// `true` if the member `a` is `b` or reaches it.
    pub(crate) fn reaches(&self, a: OpId, b: OpId) -> bool {
        let (c, pos) = self.at[a.index()];
        self.stamps[c as usize][b.index()] >= pos
    }

    /// The 1-based position of the last operation of chain `c` that
    /// reaches or is `x` (0 if none): the ops of chain `c` preceding `x`
    /// are exactly its first `stamp(c, x)`, less `x` itself.
    pub(crate) fn stamp(&self, c: usize, x: OpId) -> u32 {
        self.stamps[c][x.index()]
    }
}

/// Adjacency lists in one flat array: the successors of `x` are
/// `list[start[x]..start[x + 1]]`.
#[derive(Debug)]
struct Adjacency {
    start: Vec<u32>,
    list: Vec<OpId>,
}

impl Adjacency {
    /// Lists, for every operation `a`, the `b` of each pair `(a, b)`.
    fn new(n: usize, pairs: impl Iterator<Item = Edge> + Clone) -> Self {
        let mut start = vec![0u32; n + 1];
        for (a, _) in pairs.clone() {
            start[a.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut list = vec![OpId(0); start[n] as usize];
        for (a, b) in pairs {
            list[next[a.index()] as usize] = b;
            next[a.index()] += 1;
        }
        Adjacency { start, list }
    }

    fn of(&self, x: usize) -> &[OpId] {
        &self.list[self.start[x] as usize..self.start[x + 1] as usize]
    }
}

/// The generating edges of `;`.
fn generating<'a>(
    h: &'a History,
    sync: [&'a [Edge]; 3],
    rf: &'a [Edge],
) -> impl Iterator<Item = Edge> + Clone + 'a {
    h.po_edges().iter().chain(sync[0]).chain(sync[1]).chain(sync[2]).chain(rf).copied()
}

fn sorted(mut edges: Vec<Edge>) -> Vec<Edge> {
    edges.sort_unstable();
    edges.dedup();
    edges
}

impl<'h> Causality<'h> {
    /// Builds the causality structure of `h`.
    ///
    /// # Errors
    ///
    /// Returns [`CausalityError::Cyclic`] if `;` has a directed cycle.
    pub fn new(h: &'h History) -> Result<Self, CausalityError> {
        let lock_edges = Self::build_lock_edges(h);
        let bar_edges = Self::build_bar_edges(h);
        let await_edges = Self::build_await_edges(h);
        let reduced_lock = Self::reduce_lock(h);
        let reduced_bar = Self::reduce_bar(h, &bar_edges)?;
        // ↦await only runs from writes to awaits: no path is longer
        // than one edge, so the reduction drops duplicates only.
        let reduced_await = sorted(await_edges.clone());

        // Reads-from edges: recorded/resolved writers of reads, plus await
        // sources (the latter belong to ↦await, not |., and are already in
        // await_edges).
        let mut rf_edges = Vec::new();
        for (id, op) in h.iter() {
            if op.kind.is_read() {
                let w = h.reads_from(id);
                if !w.is_initial() {
                    if let Some(wop) = h.write_op(w) {
                        rf_edges.push((wop, id));
                    }
                }
            }
        }

        let sync = [&lock_edges[..], &bar_edges, &await_edges];
        let mut g = Digraph::new(h.len());
        for (a, b) in generating(h, sync, &rf_edges) {
            g.add_edge(a.index(), b.index());
        }
        let topo: Vec<u32> = g.topo_order()?.into_iter().map(|x| x as u32).collect();

        Ok(Causality {
            h,
            topo,
            full: OnceLock::new(),
            po: OnceLock::new(),
            lock_edges,
            bar_edges,
            await_edges,
            reduced_lock,
            reduced_bar,
            reduced_await,
            rf_edges,
        })
    }

    /// Generating edges of `↦lock`: within a write epoch `wl ↦ wu`; within
    /// a read epoch each `rl ↦` its `ru`; and every operation of an epoch
    /// `↦` every operation of the next epoch. The transitive closure of
    /// these edges is the full `↦lock` of Section 3.1.1.
    fn build_lock_edges(h: &History) -> Vec<Edge> {
        let mut edges = Vec::new();
        for epochs in h.lock_epochs().values() {
            for ep in epochs {
                for &(l, u) in &ep.members {
                    edges.push((l, u));
                }
            }
            for pair in epochs.windows(2) {
                let ops_of = |e: &crate::history::LockEpoch| {
                    e.members.iter().flat_map(|&(l, u)| [l, u]).collect::<Vec<_>>()
                };
                for a in ops_of(&pair[0]) {
                    for b in ops_of(&pair[1]) {
                        edges.push((a, b));
                    }
                }
            }
        }
        edges
    }

    /// `↦p_lock`, read off the epoch structure: each member's lock–unlock
    /// pair, and every unlock of an epoch to every lock of the next. Every
    /// other generating edge has a detour — out of a lock through its own
    /// unlock, into an unlock through its own lock — and these have none.
    fn reduce_lock(h: &History) -> Vec<Edge> {
        let mut edges = Vec::new();
        for epochs in h.lock_epochs().values() {
            for ep in epochs {
                edges.extend_from_slice(&ep.members);
            }
            for pair in epochs.windows(2) {
                for &(_, u) in &pair[0].members {
                    edges.extend(pair[1].members.iter().map(|&(l, _)| (u, l)));
                }
            }
        }
        sorted(edges)
    }

    /// Edges of `↦bar` (Section 3.1.2): for every operation `o` of `p_j`,
    /// if `o →j b^k_j` then `o ↦ b^k_i` for every participant `p_i`, and
    /// symmetrically for operations after the barrier. Only the *nearest*
    /// round is materialized per operation; farther rounds are reachable
    /// through the barrier-to-barrier chain, so the closure equals the full
    /// relation.
    fn build_bar_edges(h: &History) -> Vec<Edge> {
        let mut edges = Vec::new();
        for rounds in h.barrier_rounds().values() {
            // Per process: its own barrier ops in round order.
            let participants: Vec<ProcId> = rounds
                .first()
                .map(|r| r.ops.iter().map(|&o| h.op(o).proc).collect())
                .unwrap_or_default();
            for &p in &participants {
                let mine: Vec<OpId> = rounds
                    .iter()
                    .map(|r| {
                        r.ops
                            .iter()
                            .copied()
                            .find(|&o| h.op(o).proc == p)
                            .expect("participant present in every round")
                    })
                    .collect();
                // A barrier is ordered with every operation of its process
                // (Section 3, condition 4) and push order extends program
                // order, so "after o in program order" is "pushed after o".
                for &o in h.proc_ops(p) {
                    let next = mine.partition_point(|&b| b <= o);
                    if let Some(round) = rounds.get(next) {
                        edges.extend(round.ops.iter().map(|&b| (o, b)));
                    }
                    let prev = mine.partition_point(|&b| b < o);
                    if prev > 0 {
                        edges.extend(rounds[prev - 1].ops.iter().map(|&b| (b, o)));
                    }
                }
            }
        }
        edges
    }

    /// `↦p_bar`, the transitive reduction of `↦bar`.
    ///
    /// Every edge of `↦bar` has a barrier operation at one end, so with the
    /// barrier operations as the members of a [`Relation`] over these
    /// edges, any operation's reach is known: a barrier's from its stamps,
    /// anything else's from its successors, which are all barriers. An
    /// edge `u → v` is transitive iff a successor of `u` earlier in
    /// topological order reaches `v`; per chain, `earliest` keeps the
    /// first position any earlier successor is or leads into.
    fn reduce_bar(h: &History, edges: &[Edge]) -> Result<Vec<Edge>, CycleError> {
        let n = h.len();
        let mut g = Digraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a.index(), b.index());
        }
        let topo: Vec<u32> = g.topo_order()?.into_iter().map(|x| x as u32).collect();
        drop(g);
        let barriers = h.ops().iter().map(|op| matches!(op.kind, OpKind::Barrier { .. })).collect();
        let rel = Relation::build(h, &topo, barriers, edges.iter().copied());
        let succs = Adjacency::new(n, edges.iter().copied());
        let mut rank = vec![0u32; n];
        for (i, &x) in topo.iter().enumerate() {
            rank[x as usize] = i as u32;
        }

        let mut reduced = Vec::new();
        let mut earliest = vec![u32::MAX; rel.chain_count()];
        for u in 0..n {
            let mut vs = succs.of(u).to_vec();
            if vs.is_empty() {
                continue;
            }
            vs.sort_unstable_by_key(|v| rank[v.index()]);
            vs.dedup();
            earliest.fill(u32::MAX);
            let mut kept = Vec::new();
            for &v in &vs {
                if !(0..earliest.len()).any(|c| rel.stamp(c, v) >= earliest[c]) {
                    kept.push(v);
                }
                let entries =
                    if rel.contains(v) { std::slice::from_ref(&v) } else { succs.of(v.index()) };
                for &z in entries {
                    let (c, pos) = rel.at[z.index()];
                    earliest[c as usize] = earliest[c as usize].min(pos);
                }
            }
            kept.sort_unstable();
            reduced.extend(kept.into_iter().map(|v| (OpId(u as u32), v)));
        }
        Ok(reduced)
    }

    /// Edges of `↦await`: `w ↦ a` for every resolved synchronization source
    /// of every await (Section 3.1.3).
    fn build_await_edges(h: &History) -> Vec<Edge> {
        let mut edges = Vec::new();
        for (id, op) in h.iter() {
            if let OpKind::Await { .. } = op.kind {
                for w in h.await_sources(id) {
                    if !w.is_initial() {
                        if let Some(wop) = h.write_op(*w) {
                            edges.push((wop, id));
                        }
                    }
                }
            }
        }
        edges
    }

    /// The history this structure was built from.
    pub fn history(&self) -> &'h History {
        self.h
    }

    /// Returns `true` if `a ; b` (strictly).
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        let everyone = || vec![true; self.h.len()];
        let full = self
            .full
            .get_or_init(|| Relation::build(self.h, &self.topo, everyone(), self.generating()));
        full.precedes(a, b)
    }

    /// Returns `true` if `a` and `b` are unrelated by `;` (and distinct).
    pub fn concurrent(&self, a: OpId, b: OpId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// Returns `true` if `a →  b` in program order.
    pub fn po_precedes(&self, a: OpId, b: OpId) -> bool {
        let everyone = || vec![true; self.h.len()];
        let po = self.po.get_or_init(|| {
            Relation::build(self.h, &self.topo, everyone(), self.h.po_edges().iter().copied())
        });
        po.precedes(a, b)
    }

    /// The generating edges of `;`.
    fn generating(&self) -> impl Iterator<Item = Edge> + Clone + '_ {
        let sync = [&self.lock_edges[..], &self.bar_edges, &self.await_edges];
        generating(self.h, sync, &self.rf_edges)
    }

    /// The generating edges of `↦lock`.
    pub fn lock_edges(&self) -> &[Edge] {
        &self.lock_edges
    }

    /// The generating edges of `↦bar`.
    pub fn bar_edges(&self) -> &[Edge] {
        &self.bar_edges
    }

    /// The edges of `↦await`.
    pub fn await_edges(&self) -> &[Edge] {
        &self.await_edges
    }

    /// The reads-from edges `w |. r`.
    pub fn rf_edges(&self) -> &[Edge] {
        &self.rf_edges
    }

    /// The transitive reduction `↦p_lock`.
    pub fn reduced_lock_edges(&self) -> &[Edge] {
        &self.reduced_lock
    }

    /// The transitive reduction `↦p_bar`.
    pub fn reduced_bar_edges(&self) -> &[Edge] {
        &self.reduced_bar
    }

    /// The transitive reduction `↦p_await`.
    pub fn reduced_await_edges(&self) -> &[Edge] {
        &self.reduced_await
    }

    /// The member mask shared by `;i,C` and `;i,P`: the operations of
    /// `p_i` plus the write and synchronization operations of other
    /// processes (everything except other processes' reads).
    fn members_for(&self, i: ProcId) -> Vec<bool> {
        self.h.ops().iter().map(|op| op.proc == i || !op.kind.is_read()).collect()
    }

    /// The relation observer `p_i` sees over `edges`.
    fn relation(&self, i: ProcId, edges: impl Iterator<Item = Edge> + Clone) -> Relation {
        Relation::build(self.h, &self.topo, self.members_for(i), edges)
    }

    /// The reductions `↦p_lock ∪ ↦p_bar ∪ ↦p_await`.
    fn reduced(&self) -> impl Iterator<Item = &Edge> + Clone {
        self.reduced_lock.iter().chain(&self.reduced_bar).chain(&self.reduced_await)
    }

    /// Builds `;i,C` — Definition 2's relation: the full causality
    /// relation restricted to the operations visible to `p_i`.
    pub fn causal_relation(&self, i: ProcId) -> Relation {
        self.relation(i, self.generating())
    }

    /// Builds `;i,P` — Definition 3's relation, via the three-step
    /// construction of Section 3.2.
    pub fn pram_relation(&self, i: ProcId) -> Relation {
        self.group_relation(i, std::slice::from_ref(&i))
    }

    /// Builds the **group causality relation** `;i,G` for `p_i` within a
    /// process group `G ∋ p_i` — the paper's generalization remark in
    /// Section 3.2: "the definition can be easily generalized to maintain
    /// causality across an arbitrary group of processes; PRAM reads and
    /// causal reads form the two end points of the spectrum."
    ///
    /// Construction: keep the synchronization-order reductions and
    /// reads-from edges *incident to any group member*, close together
    /// with full program order, and project as in Definition 3. With
    /// `G = {i}` this is exactly `;i,P`; with `G` = all processes every
    /// edge survives and the result coincides with `;i,C`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a member of `group`.
    pub fn group_relation(&self, i: ProcId, group: &[ProcId]) -> Relation {
        assert!(group.contains(&i), "{i} must belong to its own group");
        let h = self.h;
        let touches_group =
            move |&&(a, b): &&Edge| group.contains(&h.op(a).proc) || group.contains(&h.op(b).proc);
        let incident = self.reduced().chain(&self.rf_edges).filter(touches_group);
        self.relation(i, h.po_edges().iter().chain(incident).copied())
    }

    /// Builds the relation a [`ModelSpec`](crate::spec::ModelSpec)
    /// declares for observer `p_i`: each ordering property admits a
    /// subset of the generating edges of `;`, and the transitive closure
    /// of the admitted set is the relation the read is judged under.
    ///
    /// * Program order: the observer's own order follows its
    ///   read-your-writes / monotonic-reads properties; other processes'
    ///   order follows the `monotonic_writes` scope. Pairs with a
    ///   synchronization endpoint are always kept (release/acquire
    ///   ordering is part of every point in the lattice). Where a spec
    ///   keeps only some ordered pairs, an edge set with the same closure
    ///   stands in for them (see `sparse_po`).
    /// * Synchronization order: the full `↦` generating sets
    ///   (`sync = Full`, Definition 2) or their reductions restricted to
    ///   edges incident to `p_i` (`sync = Incident`, Definition 3).
    /// * Reads-from: all edges (`writes_follow_reads`) or only those
    ///   incident to `p_i`. The edges into `p_i`'s own reads are always
    ///   included, so a returned write is visible by construction.
    ///
    /// With [`ModelSpec::CAUSAL`](crate::spec::ModelSpec::CAUSAL) this
    /// reproduces [`Causality::causal_relation`] exactly, and with
    /// [`ModelSpec::PRAM`](crate::spec::ModelSpec::PRAM) it reproduces
    /// [`Causality::pram_relation`] — the property tests pin both.
    pub fn spec_relation(&self, i: ProcId, spec: &crate::spec::ModelSpec) -> Relation {
        use crate::spec::{OrderScope, SyncScope};
        let h = self.h;
        let all_po = |p: ProcId| {
            if p == i {
                spec.read_your_writes && spec.monotonic_reads
            } else {
                spec.monotonic_writes == OrderScope::Global
            }
        };

        // Program order.
        let mut edges: Vec<Edge> =
            h.po_edges().iter().copied().filter(|&(a, _)| all_po(h.op(a).proc)).collect();
        let partial: Vec<ProcId> =
            (0..h.nprocs()).map(|p| ProcId(p as u32)).filter(|&p| !all_po(p)).collect();
        if !partial.is_empty() {
            let succs = Adjacency::new(h.len(), h.po_edges().iter().copied());
            let preds = Adjacency::new(h.len(), h.po_edges().iter().map(|&(a, b)| (b, a)));
            let sync = |k: &OpKind| k.is_sync();
            for p in partial {
                if p == i {
                    let from = |k: &OpKind| {
                        k.is_sync()
                            || (k.is_write_like() && spec.read_your_writes)
                            || (k.is_read() && spec.monotonic_reads)
                    };
                    sparse_po(h, p, [&preds, &succs], from, sync, &mut edges);
                } else {
                    sparse_po(h, p, [&preds, &succs], sync, sync, &mut edges);
                    if spec.monotonic_writes == OrderScope::PerLocation {
                        same_location_writes(h, p, &mut edges);
                    }
                }
            }
        }

        // Synchronization order.
        match spec.sync {
            SyncScope::Full => {
                edges.extend(self.lock_edges.iter().chain(&self.bar_edges).chain(&self.await_edges))
            }
            SyncScope::Incident => edges
                .extend(self.reduced().filter(|&&(a, b)| h.op(a).proc == i || h.op(b).proc == i)),
        }

        // Reads-from.
        edges.extend(
            self.rf_edges.iter().filter(|&&(w, r)| {
                spec.writes_follow_reads || h.op(w).proc == i || h.op(r).proc == i
            }),
        );

        self.relation(i, edges.iter().copied())
    }
}

/// Appends edges with the same closure as the program-order pairs
/// `a →p b` of process `p` with `from(a) || to(b)`, where `to` implies
/// `from`: each operation gets an edge from every last `from` operation
/// before it and one to every first `to` operation after it.
///
/// Every such edge is a kept pair. Conversely, for a kept pair with
/// `from(a)`, the last `from` operation on a path from `a` to `b` is
/// reached from `a` by induction and has an edge to `b`; with `to(b)`
/// alone, `a` has an edge to the first `to` operation `t` on its way to
/// `b`, and `t` is a `from` operation, so the first case takes over.
/// `[preds, succs]` are the program-order adjacency lists.
fn sparse_po(
    h: &History,
    p: ProcId,
    [preds, succs]: [&Adjacency; 2],
    from: impl Fn(&OpKind) -> bool,
    to: impl Fn(&OpKind) -> bool,
    edges: &mut Vec<Edge>,
) {
    let ops = h.proc_ops(p);
    let local = |o: OpId| ops.binary_search(&o).expect("program order stays in its process");
    // The matching operations among `next`, and past each one that does
    // not match, the ones already found for it.
    let nearest = |next: &[OpId], found: &[Vec<OpId>], pick: &dyn Fn(&OpKind) -> bool| {
        let mut set = Vec::new();
        for &q in next {
            if pick(&h.op(q).kind) {
                set.push(q);
            } else {
                set.extend_from_slice(&found[local(q)]);
            }
        }
        set.sort_unstable();
        set.dedup();
        set
    };
    // Push order extends program order.
    let mut last = vec![Vec::new(); ops.len()];
    for (k, &b) in ops.iter().enumerate() {
        last[k] = nearest(preds.of(b.index()), &last, &from);
        edges.extend(last[k].iter().map(|&a| (a, b)));
    }
    let mut first = vec![Vec::new(); ops.len()];
    for (k, &a) in ops.iter().enumerate().rev() {
        first[k] = nearest(succs.of(a.index()), &first, &to);
        edges.extend(first[k].iter().map(|&b| (a, b)));
    }
}

/// Appends the program order between consecutive write-like operations
/// of `p` on each location (totally ordered: Section 3, condition 2).
fn same_location_writes(h: &History, p: ProcId, edges: &mut Vec<Edge>) {
    let mut last: HashMap<Loc, OpId> = HashMap::new();
    for &o in h.proc_ops(p) {
        let kind = &h.op(o).kind;
        if let (true, Some(loc)) = (kind.is_write_like(), kind.loc()) {
            if let Some(prev) = last.insert(loc, o) {
                edges.push((prev, o));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{BarrierId, BarrierRound, Loc, LockId};
    use crate::op::{LockMode, ReadLabel};
    use crate::value::Value;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn program_order_is_causal() {
        let mut b = HistoryBuilder::new(1);
        let (a, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let (c, _) = b.push_write(p(0), Loc(1), Value::Int(2));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(a, c));
        assert!(!cz.precedes(c, a));
        assert!(cz.po_precedes(a, c));
    }

    #[test]
    fn reads_from_is_causal() {
        let mut b = HistoryBuilder::new(2);
        let (w, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let r = b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(w, r));
        assert_eq!(cz.rf_edges(), &[(w, r)]);
    }

    #[test]
    fn transitivity_across_processes() {
        // w0(x)1 |. r1(x)1 -> w1(y)2 |. r2(y)2 : so w0 ; r2.
        let mut b = HistoryBuilder::new(3);
        let (w0, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        b.push_write(p(1), Loc(1), Value::Int(2));
        let r2 = b.push_read(p(2), Loc(1), ReadLabel::Causal, Value::Int(2));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(w0, r2));
    }

    #[test]
    fn concurrent_writes_are_unrelated() {
        let mut b = HistoryBuilder::new(2);
        let (a, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let (c, _) = b.push_write(p(1), Loc(0), Value::Int(2));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.concurrent(a, c));
        assert!(!cz.concurrent(a, a));
    }

    #[test]
    fn lock_handoff_orders_critical_sections() {
        // p0: wl, w(x)1, wu ; p1: wl, r(x)1, wu — the grant order makes
        // p0's write causally precede p1's read even without reads-from.
        let mut b = HistoryBuilder::new(2);
        let l = LockId(0);
        b.push_lock(p(0), l, LockMode::Write);
        let (w, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let wu0 = b.push_unlock(p(0), l, LockMode::Write);
        let wl1 = b.push_lock(p(1), l, LockMode::Write);
        let r = b.push_read(p(1), Loc(1), ReadLabel::Causal, Value::Int(0));
        b.push_unlock(p(1), l, LockMode::Write);
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(wu0, wl1));
        assert!(cz.precedes(w, r)); // w -> wu0 -> wl1 -> r
    }

    #[test]
    fn reduced_lock_is_a_chain() {
        // Three sequential write epochs: the reduced relation must be the
        // chain wl0-wu0-wl1-wu1-wl2-wu2 (immediate-predecessor semantics).
        let mut b = HistoryBuilder::new(3);
        let l = LockId(0);
        let mut ops = Vec::new();
        for i in 0..3 {
            ops.push(b.push_lock(p(i), l, LockMode::Write));
            ops.push(b.push_unlock(p(i), l, LockMode::Write));
        }
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        let mut reduced = cz.reduced_lock_edges().to_vec();
        reduced.sort();
        let expect: Vec<Edge> = ops.windows(2).map(|w| (w[0], w[1])).collect();
        assert_eq!(reduced, expect);
        // The full relation has the transitive shortcut.
        assert!(
            cz.lock_edges().iter().any(|&(a, b2)| a == ops[0] && b2 == ops[3])
                || cz.precedes(ops[0], ops[3])
        );
    }

    #[test]
    fn barrier_separates_phases() {
        // p0 writes before the barrier; p1 reads after it.
        let mut b = HistoryBuilder::new(2);
        let (w, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let b0 = b.push_barrier(p(0), BarrierId(0), BarrierRound(0));
        let b1 = b.push_barrier(p(1), BarrierId(0), BarrierRound(0));
        let r = b.push_read(p(1), Loc(0), ReadLabel::Pram, Value::Int(1));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(w, b0));
        assert!(cz.precedes(w, b1)); // o ↦bar b^k_i for every i
        assert!(cz.precedes(b0, r)); // b^k_i ↦bar o for post-barrier o
        assert!(cz.precedes(w, r));
        // Barrier ops of one round are mutually unordered.
        assert!(cz.concurrent(b0, b1));
    }

    #[test]
    fn barrier_rounds_chain() {
        let mut b = HistoryBuilder::new(2);
        let bar = BarrierId(0);
        let b00 = b.push_barrier(p(0), bar, BarrierRound(0));
        let b01 = b.push_barrier(p(1), bar, BarrierRound(0));
        let b10 = b.push_barrier(p(0), bar, BarrierRound(1));
        let b11 = b.push_barrier(p(1), bar, BarrierRound(1));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(b00, b10));
        assert!(cz.precedes(b00, b11));
        assert!(cz.precedes(b01, b10));
        assert!(cz.concurrent(b10, b11));
    }

    #[test]
    fn await_orders_writer_before_awaiter() {
        let mut b = HistoryBuilder::new(2);
        let (w, _) = b.push_write(p(0), Loc(0), Value::Int(3));
        let a = b.push_await(p(1), Loc(0), Value::Int(3));
        let r = b.push_read(p(1), Loc(1), ReadLabel::Causal, Value::Int(0));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        assert!(cz.precedes(w, a));
        assert!(cz.precedes(w, r));
        assert_eq!(cz.await_edges(), &[(w, a)]);
    }

    #[test]
    fn causal_relation_excludes_other_reads() {
        let mut b = HistoryBuilder::new(2);
        let (w, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        let r0 = b.push_read(p(0), Loc(0), ReadLabel::Causal, Value::Int(1));
        let r1 = b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        let rel0 = cz.causal_relation(p(0));
        assert!(rel0.contains(w));
        assert!(rel0.contains(r0)); // own read
        assert!(!rel0.contains(r1)); // other process's read
        assert!(rel0.precedes(w, r0));
        let rel1 = cz.causal_relation(p(1));
        assert!(rel1.contains(r1));
        assert!(!rel1.contains(r0));
        let member_count = rel1.members().count();
        assert_eq!(member_count, 2); // w and r1
    }

    #[test]
    fn pram_relation_drops_foreign_chains() {
        // w0(x)1 |. r1(x)1 -> w1(y)2 : p2 never interacts with p0, so
        // w0 must NOT precede p2's ops in ;2,P, although it does in ;2,C.
        let mut b = HistoryBuilder::new(3);
        let (w0, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        b.push_write(p(1), Loc(1), Value::Int(2));
        let r2 = b.push_read(p(2), Loc(1), ReadLabel::Pram, Value::Int(2));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();

        let causal = cz.causal_relation(p(2));
        assert!(causal.precedes(w0, r2));

        let pram = cz.pram_relation(p(2));
        assert!(!pram.precedes(w0, r2));
        // But the direct dependency is kept.
        let w1_op = OpId(2);
        assert!(pram.precedes(w1_op, r2));
    }

    #[test]
    fn pram_equals_causal_for_two_processes() {
        // With two processes the paper observes ;i,P and ;i,C coincide.
        let mut b = HistoryBuilder::new(2);
        let (w0, _) = b.push_write(p(0), Loc(0), Value::Int(1));
        b.push_read(p(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        let (w1, _) = b.push_write(p(1), Loc(1), Value::Int(2));
        let r0 = b.push_read(p(0), Loc(1), ReadLabel::Pram, Value::Int(2));
        let h = b.build().unwrap();
        let cz = Causality::new(&h).unwrap();
        let pram = cz.pram_relation(p(0));
        let causal = cz.causal_relation(p(0));
        for a in h.op_ids() {
            for b2 in h.op_ids() {
                if causal.contains(a) && causal.contains(b2) {
                    assert_eq!(pram.precedes(a, b2), causal.precedes(a, b2), "{a} vs {b2}");
                }
            }
        }
        assert!(pram.precedes(w0, r0));
        assert!(pram.precedes(w1, r0));
    }

    #[test]
    fn cyclic_history_is_rejected() {
        // Two awaits reading each other's future writes create a cycle:
        // p0: a(x=1); w(y)1   p1: a(y=1); w(x)1
        let mut b = HistoryBuilder::new(2);
        b.push_await(p(0), Loc(0), Value::Int(1));
        b.push_write(p(0), Loc(1), Value::Int(1));
        b.push_await(p(1), Loc(1), Value::Int(1));
        b.push_write(p(1), Loc(0), Value::Int(1));
        let h = b.build().unwrap();
        assert!(matches!(Causality::new(&h), Err(CausalityError::Cyclic(_))));
    }
}
