//! String analyses underlying automatic trace identification.
//!
//! The Apophenia paper (ASPLOS '25) reduces automatic trace identification
//! to a family of online string problems over the stream of task hashes.
//! This crate implements the string machinery it needs, independent of any
//! runtime system:
//!
//! * [`repeats`] — the paper's Algorithm 2: non-overlapping repeated
//!   substring mining with greedy longest-first selection
//!   (`quick_matching_of_substrings` in the artifact's flag spelling).
//!   One kernel, `find_repeats_into`, running in a reusable `u32`
//!   workspace (`MiningScratch`); the other entry points wrap it.
//! * [`suffix_array`] — the kernel's suffix index: order-preserving
//!   alphabet compaction, a suffix array from a selectable backend
//!   (`SuffixBackend`: SA-IS induced sorting, `O(n)`, the default, or
//!   prefix doubling with counting sorts, `O(n log n)`) and Kasai's
//!   linear-time LCP array — stopping early when no repeat of the wanted
//!   length can exist. `SuffixArray` is its owned, `usize` view.
//! * `sais` (private) — the SA-IS construction itself, allocation-free
//!   over caller-provided buffers.
//! * [`coverage`] — the §3 optimization problem: traces, matchings,
//!   coverage, validity, and a brute-force optimal reference solver used in
//!   tests and ablations.
//! * [`tandem`] — tandem-repeat mining (the Sisco et al. baseline the paper
//!   found insufficient for real programs).
//! * [`lzw`] — an LZW-style incremental dictionary baseline.
//! * [`trie`] — a token trie with cursor-based multi-match traversal, used
//!   by the trace replayer to recognize candidate traces online.
//!
//! Everything is generic over a token type `T: Token`; the runtime layer
//! instantiates it with 64-bit task hashes, while tests frequently use
//! bytes for readability.
//!
//! # Example
//!
//! Mining the paper's Figure 4 string:
//!
//! ```
//! use substrings::repeats::find_repeats;
//!
//! let s: Vec<u8> = b"aabcbcbaa".to_vec();
//! let found = find_repeats(&s);
//! let strings: Vec<&[u8]> = found.iter().map(|r| r.content.as_slice()).collect();
//! assert!(strings.contains(&b"aa".as_slice()));
//! assert!(strings.contains(&b"bc".as_slice()));
//! ```

pub mod coverage;
pub mod lzw;
pub mod repeats;
mod sais;
pub mod suffix_array;
pub mod tandem;
pub mod trie;

pub use repeats::{find_repeats_into, MiningScratch};
pub use suffix_array::SuffixBackend;

use std::fmt::Debug;
use std::hash::Hash;

/// Token alphabet bound used throughout the crate.
///
/// Implemented for anything cheap to copy, orderable, and hashable — in
/// practice `u8` in tests and `u64` task hashes in the runtime layer.
pub trait Token: Copy + Ord + Hash + Debug {}

impl<T: Copy + Ord + Hash + Debug> Token for T {}

/// A half-open interval `[start, end)` over positions of a token sequence.
///
/// Intervals are the currency of the §3 optimization problem: a matching
/// maps each trace to a set of disjoint intervals of the program's task
/// sequence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// Inclusive start position.
    pub start: usize,
    /// Exclusive end position.
    pub end: usize,
}

impl Interval {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Self { start, end }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the interval covers no positions.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether two intervals share at least one position.
    ///
    /// Empty intervals cover no positions and therefore overlap nothing.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Whether `pos` lies inside the interval.
    pub fn contains(&self, pos: usize) -> bool {
        self.start <= pos && pos < self.end
    }
}

impl Debug for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let i = Interval::new(2, 5);
        assert_eq!(i.len(), 3);
        assert!(!i.is_empty());
        assert!(i.contains(2));
        assert!(i.contains(4));
        assert!(!i.contains(5));
        assert_eq!(format!("{i:?}"), "[2, 5)");
    }

    #[test]
    fn interval_empty() {
        let i = Interval::new(3, 3);
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert!(!i.contains(3));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn interval_backwards_panics() {
        let _ = Interval::new(5, 2);
    }

    #[test]
    fn interval_overlap() {
        let a = Interval::new(0, 4);
        let b = Interval::new(3, 6);
        let c = Interval::new(4, 8);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
        // Empty intervals overlap nothing.
        let e = Interval::new(2, 2);
        assert!(!e.overlaps(&a));
        assert!(!a.overlaps(&e));
    }
}
