//! Directed-graph utilities: topological order, and dense bitset
//! transitive closure and reduction over small DAGs.
//!
//! The consistency checkers do not use the dense forms: a relation over a
//! whole history is chain stamps ([`crate::causality::Relation`]), n·k
//! integers for k chains instead of n² bits, and only needs
//! [`Digraph::topo_order`] from here. The closure and reduction are for
//! what stays small — one partially ordered process while a history is
//! validated — and serve the test suites as an independent reference.

use std::fmt;

/// A dense `n × n` boolean matrix backed by `u64` words.
///
/// Row `i` is the set of columns `j` with `m[i][j] = true`. Used for
/// adjacency and reachability.
///
/// # Examples
///
/// ```
/// use mc_model::graph::BitMatrix;
/// let mut m = BitMatrix::new(3);
/// m.set(0, 1);
/// assert!(m.get(0, 1));
/// assert!(!m.get(1, 0));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-false `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix { n, words_per_row, bits: vec![0; n * words_per_row] }
    }

    /// The dimension of the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix is zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets entry `(i, j)` to true.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Reads entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// ORs row `src` into row `dst` (`dst |= src`).
    ///
    /// # Panics
    ///
    /// Panics if either row index is out of bounds.
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.n && dst < self.n, "index out of bounds");
        if src == dst {
            return;
        }
        let w = self.words_per_row;
        let (s, d) = (src * w, dst * w);
        // Split the borrow manually; rows never alias because src != dst.
        for k in 0..w {
            let v = self.bits[s + k];
            self.bits[d + k] |= v;
        }
    }

    /// Iterates over the set columns of row `i` in increasing order.
    pub fn row_iter(&self, i: usize) -> RowIter<'_> {
        assert!(i < self.n, "index out of bounds");
        RowIter {
            words: &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row],
            word_idx: 0,
            current: if self.words_per_row == 0 { 0 } else { self.bits[i * self.words_per_row] },
            n: self.n,
        }
    }

    /// Counts the set bits of row `i`.
    pub fn row_count(&self, i: usize) -> usize {
        self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            write!(f, "  {i}: ")?;
            for j in self.row_iter(i) {
                write!(f, "{j} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Iterator over the set columns of a [`BitMatrix`] row.
#[derive(Debug)]
pub struct RowIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    n: usize,
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let j = self.word_idx * 64 + bit;
                return if j < self.n { Some(j) } else { None };
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A directed graph on `n` nodes stored as adjacency lists.
///
/// Node identifiers are dense `usize` indices; callers translate
/// [`OpId`](crate::OpId)s. Parallel edges are tolerated (deduplicated on
/// demand).
#[derive(Clone, Debug, Default)]
pub struct Digraph {
    adj: Vec<Vec<u32>>,
}

/// Error returned when an algorithm requires a DAG but the graph has a
/// directed cycle.
///
/// The causality relation of a history must be acyclic (Section 3: "we
/// restrict our attention to histories with acyclic causality relations");
/// a cycle indicates a corrupted or adversarial recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A node known to lie on a cycle.
    pub node: usize,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "directed cycle through node {}", self.node)
    }
}

impl std::error::Error for CycleError {}

impl Digraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Digraph { adj: vec![Vec::new(); n] }
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the edge `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.len() && v < self.len(), "node out of bounds");
        self.adj[u].push(v as u32);
    }

    /// The successors of `u` (possibly with duplicates).
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// All edges as `(u, v)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v as usize)))
    }

    /// The number of edges (counting duplicates).
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Computes a topological order of the nodes.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn topo_order(&self) -> Result<Vec<usize>, CycleError> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for (_, v) in self.edges() {
            indeg[v] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in &self.adj[u] {
                let v = v as usize;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        if order.len() != n {
            let node = (0..n).find(|&v| indeg[v] > 0).unwrap_or(0);
            return Err(CycleError { node });
        }
        Ok(order)
    }

    /// Computes the strict transitive closure as a [`BitMatrix`]:
    /// `closure[u][v]` iff there is a path of length ≥ 1 from `u` to `v`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn transitive_closure(&self) -> Result<BitMatrix, CycleError> {
        let order = self.topo_order()?;
        let n = self.len();
        let mut reach = BitMatrix::new(n);
        // Process in reverse topological order so successors are finished.
        for &u in order.iter().rev() {
            // Collect first to avoid borrowing issues; successor lists are
            // short relative to row widths.
            for &v in &self.adj[u] {
                let v = v as usize;
                reach.or_row_into(v, u);
                reach.set(u, v);
            }
        }
        Ok(reach)
    }

    /// Computes the transitive reduction of this DAG: the unique minimal
    /// edge set with the same reachability.
    ///
    /// An edge `(u, v)` is *transitive* — and removed — iff some other
    /// successor `z` of `u` reaches `v`. This is exactly the paper's
    /// "removing the transitive edges" step used to define the PRAM
    /// synchronization orders `↦p_lock`, `↦p_bar`, `↦p_await`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn transitive_reduction(&self) -> Result<Digraph, CycleError> {
        let closure = self.transitive_closure()?;
        let mut out = Digraph::new(self.len());
        for u in 0..self.len() {
            let mut kept: Vec<usize> = Vec::new();
            let mut succs: Vec<usize> = self.adj[u].iter().map(|&v| v as usize).collect();
            succs.sort_unstable();
            succs.dedup();
            for &v in &succs {
                let transitive = succs.iter().any(|&z| z != v && z != u && closure.get(z, v));
                if !transitive {
                    kept.push(v);
                }
            }
            for v in kept {
                out.add_edge(u, v);
            }
        }
        Ok(out)
    }
}

impl FromIterator<(usize, usize)> for Digraph {
    /// Builds a graph sized to the largest mentioned node.
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let edges: Vec<(usize, usize)> = iter.into_iter().collect();
        let n = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
        let mut g = Digraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmatrix_set_get() {
        let mut m = BitMatrix::new(130);
        assert!(!m.is_empty());
        m.set(0, 0);
        m.set(0, 64);
        m.set(129, 129);
        assert!(m.get(0, 0));
        assert!(m.get(0, 64));
        assert!(m.get(129, 129));
        assert!(!m.get(0, 1));
        assert_eq!(m.row_count(0), 2);
        let cols: Vec<usize> = m.row_iter(0).collect();
        assert_eq!(cols, vec![0, 64]);
    }

    #[test]
    fn bitmatrix_or_row() {
        let mut m = BitMatrix::new(70);
        m.set(1, 5);
        m.set(1, 69);
        m.or_row_into(1, 0);
        assert!(m.get(0, 5) && m.get(0, 69));
        // Self-or is a no-op.
        m.or_row_into(0, 0);
        assert_eq!(m.row_count(0), 2);
    }

    #[test]
    fn topo_order_on_chain() {
        let g: Digraph = [(0, 1), (1, 2), (2, 3)].into_iter().collect();
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn topo_detects_cycle() {
        let g: Digraph = [(0, 1), (1, 2), (2, 0)].into_iter().collect();
        assert!(g.topo_order().is_err());
        assert!(g.transitive_closure().is_err());
        let err = g.transitive_reduction().unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn closure_of_diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let g: Digraph = [(0, 1), (0, 2), (1, 3), (2, 3)].into_iter().collect();
        let c = g.transitive_closure().unwrap();
        assert!(c.get(0, 1) && c.get(0, 2) && c.get(0, 3));
        assert!(c.get(1, 3) && c.get(2, 3));
        assert!(!c.get(1, 2) && !c.get(2, 1));
        assert!(!c.get(3, 0));
        assert!(!c.get(0, 0)); // strict
    }

    #[test]
    fn closure_is_strict_on_dag() {
        let g: Digraph = [(0, 1)].into_iter().collect();
        let c = g.transitive_closure().unwrap();
        assert!(!c.get(0, 0));
        assert!(!c.get(1, 1));
    }

    #[test]
    fn reduction_removes_shortcut() {
        // 0 -> 1 -> 2 plus the transitive shortcut 0 -> 2.
        let g: Digraph = [(0, 1), (1, 2), (0, 2)].into_iter().collect();
        let r = g.transitive_reduction().unwrap();
        let edges: Vec<(usize, usize)> = r.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn reduction_keeps_diamond() {
        let g: Digraph = [(0, 1), (0, 2), (1, 3), (2, 3)].into_iter().collect();
        let r = g.transitive_reduction().unwrap();
        assert_eq!(r.edge_count(), 4);
    }

    #[test]
    fn reduction_handles_duplicate_edges() {
        let g: Digraph = [(0, 1), (0, 1), (1, 2), (0, 2)].into_iter().collect();
        let r = g.transitive_reduction().unwrap();
        let edges: Vec<(usize, usize)> = r.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn reduction_preserves_reachability() {
        // Random-ish layered DAG; reduction must preserve the closure.
        let mut g = Digraph::new(12);
        let edges = [
            (0, 3),
            (0, 4),
            (1, 4),
            (2, 5),
            (3, 6),
            (4, 6),
            (4, 7),
            (5, 8),
            (6, 9),
            (7, 9),
            (8, 10),
            (9, 11),
            (0, 6),
            (1, 9),
            (2, 10),
            (3, 9),
            (0, 11),
        ];
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        let before = g.transitive_closure().unwrap();
        let red = g.transitive_reduction().unwrap();
        let after = red.transitive_closure().unwrap();
        for u in 0..12 {
            for v in 0..12 {
                assert_eq!(before.get(u, v), after.get(u, v), "({u},{v})");
            }
        }
        assert!(red.edge_count() < g.edge_count());
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::new(0);
        assert!(g.is_empty());
        assert!(g.topo_order().unwrap().is_empty());
        let c = g.transitive_closure().unwrap();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn row_iter_empty_row() {
        let m = BitMatrix::new(3);
        assert_eq!(m.row_iter(2).count(), 0);
    }
}
