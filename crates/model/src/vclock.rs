//! Vector clocks.
//!
//! Section 6 of the paper: "Each process maintains a vector timestamp in
//! order to define the causality between operations. The timestamp is
//! updated after each write operation. Update messages for each variable
//! are broadcast along with the process vector timestamp."
//!
//! Component `i` of a clock counts the *writes of process `p_i`* known to
//! the clock's owner. The protocols in `mc-proto` gate the application of
//! updates and the completion of causal reads on clock dominance.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

use crate::ids::ProcId;

/// A vector timestamp over a fixed set of processes.
///
/// # Examples
///
/// ```
/// use mc_model::{ProcId, VClock};
/// let mut a = VClock::new(3);
/// a.tick(ProcId(0));
/// let mut b = VClock::new(3);
/// b.tick(ProcId(1));
/// assert!(!a.dominates(&b));
/// b.merge(&a);
/// assert!(b.dominates(&a));
/// ```
#[derive(PartialEq, Eq, Hash, Default)]
pub struct VClock {
    counts: Vec<u32>,
}

/// Written out so that `clone_from` reuses the target's buffer (the
/// derived one reallocates): a clock overwritten once per message, like
/// a link's shadow clock, then costs no allocation.
impl Clone for VClock {
    fn clone(&self) -> Self {
        VClock { counts: self.counts.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
    }
}

impl VClock {
    /// Creates the zero clock over `n` processes.
    pub fn new(n: usize) -> Self {
        VClock { counts: vec![0; n] }
    }

    /// The number of processes this clock covers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if the clock covers no processes.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Increments the component of `proc` and returns the new count.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn tick(&mut self, proc: ProcId) -> u32 {
        let c = &mut self.counts[proc.index()];
        *c += 1;
        *c
    }

    /// Reads the component of `proc`.
    pub fn get(&self, proc: ProcId) -> u32 {
        self.counts[proc.index()]
    }

    /// Sets the component of `proc`.
    pub fn set(&mut self, proc: ProcId, value: u32) {
        self.counts[proc.index()] = value;
    }

    /// Pointwise maximum with `other` (`self := self ⊔ other`).
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn merge(&mut self, other: &VClock) {
        assert_eq!(self.len(), other.len(), "clock length mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = (*a).max(*b);
        }
    }

    /// Returns `true` if `self ≥ other` pointwise.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn dominates(&self, other: &VClock) -> bool {
        assert_eq!(self.len(), other.len(), "clock length mismatch");
        self.counts.iter().zip(&other.counts).all(|(a, b)| a >= b)
    }

    /// The sum of all components: a scalar Lamport-style stamp that
    /// strictly increases along causality (if `a < b` causally then
    /// `a.sum() < b.sum()`), used as a last-writer-wins tie-break base.
    pub fn sum(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Compares two clocks in the causal partial order.
    ///
    /// Returns `None` for concurrent (incomparable) clocks.
    pub fn partial_cmp_causal(&self, other: &VClock) -> Option<Ordering> {
        let ge = self.dominates(other);
        let le = other.dominates(self);
        match (ge, le) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Greater),
            (false, true) => Some(Ordering::Less),
            (false, false) => None,
        }
    }

    /// Iterates over `(ProcId, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, u32)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| (ProcId(i as u32), c))
    }

    /// The sum of all components (total writes covered).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }
}

impl Index<ProcId> for VClock {
    type Output = u32;

    fn index(&self, proc: ProcId) -> &u32 {
        &self.counts[proc.index()]
    }
}

impl fmt::Debug for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VClock{:?}", self.counts)
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<u32> for VClock {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        VClock { counts: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut c = VClock::new(2);
        assert_eq!(c.get(ProcId(0)), 0);
        assert_eq!(c.tick(ProcId(0)), 1);
        assert_eq!(c.tick(ProcId(0)), 2);
        assert_eq!(c.get(ProcId(0)), 2);
        assert_eq!(c[ProcId(1)], 0);
        c.set(ProcId(1), 7);
        assert_eq!(c[ProcId(1)], 7);
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let src: VClock = [4, 0, 9].into_iter().collect();
        let mut dst = VClock::new(3);
        let buf = dst.counts.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.counts.as_ptr(), buf, "same allocation");
    }

    #[test]
    fn merge_is_pointwise_max() {
        let a: VClock = [3, 0, 1].into_iter().collect();
        let mut b: VClock = [1, 5, 1].into_iter().collect();
        b.merge(&a);
        let expect: VClock = [3, 5, 1].into_iter().collect();
        assert_eq!(b, expect);
    }

    #[test]
    fn dominance_and_concurrency() {
        let a: VClock = [2, 1].into_iter().collect();
        let b: VClock = [1, 1].into_iter().collect();
        let c: VClock = [1, 2].into_iter().collect();
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert_eq!(a.partial_cmp_causal(&b), Some(Ordering::Greater));
        assert_eq!(b.partial_cmp_causal(&a), Some(Ordering::Less));
        assert_eq!(a.partial_cmp_causal(&a), Some(Ordering::Equal));
        assert_eq!(a.partial_cmp_causal(&c), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = VClock::new(2);
        let b = VClock::new(3);
        let _ = a.dominates(&b);
    }

    #[test]
    fn display_and_iter() {
        let c: VClock = [1, 0, 4].into_iter().collect();
        assert_eq!(c.to_string(), "⟨1,0,4⟩");
        let pairs: Vec<(ProcId, u32)> = c.iter().collect();
        assert_eq!(pairs, vec![(ProcId(0), 1), (ProcId(1), 0), (ProcId(2), 4)]);
        assert!(!c.is_empty());
        assert!(VClock::new(0).is_empty());
    }

    #[test]
    fn merge_laws() {
        // Commutative, associative, idempotent — checked on fixed samples
        // (the proptest suite covers random clocks).
        let a: VClock = [1, 4, 2].into_iter().collect();
        let b: VClock = [3, 0, 2].into_iter().collect();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a);
        assert!(ab.dominates(&a) && ab.dominates(&b));
    }
}
