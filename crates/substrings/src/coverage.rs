//! The §3 optimization problem: traces, matchings, coverage, and validity.
//!
//! The paper defines automatic trace identification as choosing, from the
//! complete task sequence `S`:
//!
//! * a set of traces `T` (substrings of `S`), and
//! * a matching `f : T → interval set`,
//!
//! maximizing `coverage(T, f) = Σ_{t∈T} Σ_{i∈f(t)} |i|`, subject to every
//! trace exceeding a minimum length and all matched intervals being
//! disjoint. Ties prefer more matched intervals, then fewer traces.
//!
//! This module gives the objective a concrete, testable form. It also
//! provides [`max_coverage_upper_bound`], a dynamic program that computes
//! the best possible coverage achievable by *any* trace set (each interval
//! must be an occurrence of a substring that repeats somewhere in `S`).
//! Only this module's own tests call it today, as the reference bound a
//! greedy matching must not exceed; no bench measures the gap between
//! the miner of [`crate::repeats`] and optimal yet.

use crate::{Interval, Token};
use std::collections::HashMap;

/// A trace set `T` plus matching `f`, the §3 solution object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching<T> {
    entries: Vec<(Vec<T>, Vec<Interval>)>,
}

/// Why a matching fails validation against a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchingError {
    /// Two matched intervals overlap.
    OverlappingIntervals(Interval, Interval),
    /// An interval's content in `S` differs from its trace.
    ContentMismatch {
        /// The offending interval.
        interval: Interval,
    },
    /// An interval extends past the end of the sequence.
    OutOfBounds(Interval),
    /// A trace is shorter than the minimum length.
    TraceTooShort {
        /// Actual trace length.
        len: usize,
        /// Required minimum.
        min_len: usize,
    },
    /// An interval's length differs from its trace's length.
    LengthMismatch(Interval),
}

impl std::fmt::Display for MatchingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OverlappingIntervals(a, b) => write!(f, "intervals {a:?} and {b:?} overlap"),
            Self::ContentMismatch { interval } => {
                write!(f, "sequence content at {interval:?} does not equal its trace")
            }
            Self::OutOfBounds(i) => write!(f, "interval {i:?} exceeds the sequence"),
            Self::TraceTooShort { len, min_len } => {
                write!(f, "trace of length {len} below minimum {min_len}")
            }
            Self::LengthMismatch(i) => write!(f, "interval {i:?} length differs from its trace"),
        }
    }
}

impl std::error::Error for MatchingError {}

impl<T: Token> Matching<T> {
    /// An empty solution (zero coverage).
    pub fn new() -> Self {
        Self { entries: Vec::new() }
    }

    /// Adds trace `t` matched at `intervals`.
    pub fn insert(&mut self, trace: Vec<T>, intervals: Vec<Interval>) {
        self.entries.push((trace, intervals));
    }

    /// Number of traces, `|T|`.
    pub fn trace_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of matched intervals, `Σ_t |f(t)|`.
    pub fn interval_count(&self) -> usize {
        self.entries.iter().map(|(_, ivs)| ivs.len()).sum()
    }

    /// The §3 objective: total positions covered.
    pub fn coverage(&self) -> usize {
        self.entries.iter().flat_map(|(_, ivs)| ivs).map(Interval::len).sum()
    }

    /// Iterates over `(trace, intervals)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[T], &[Interval])> {
        self.entries.iter().map(|(t, ivs)| (t.as_slice(), ivs.as_slice()))
    }

    /// Validates this solution against the sequence `s` under `min_len`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: overlapping intervals,
    /// content mismatches, out-of-bounds or wrong-length intervals, or a
    /// trace below the minimum length.
    pub fn validate(&self, s: &[T], min_len: usize) -> Result<(), MatchingError> {
        let mut all: Vec<Interval> = Vec::new();
        for (trace, ivs) in &self.entries {
            if trace.len() < min_len {
                return Err(MatchingError::TraceTooShort { len: trace.len(), min_len });
            }
            for iv in ivs {
                if iv.end > s.len() {
                    return Err(MatchingError::OutOfBounds(*iv));
                }
                if iv.len() != trace.len() {
                    return Err(MatchingError::LengthMismatch(*iv));
                }
                if &s[iv.start..iv.end] != trace.as_slice() {
                    return Err(MatchingError::ContentMismatch { interval: *iv });
                }
                all.push(*iv);
            }
        }
        all.sort();
        for w in all.windows(2) {
            if w[0].overlaps(&w[1]) {
                return Err(MatchingError::OverlappingIntervals(w[0], w[1]));
            }
        }
        Ok(())
    }
}

impl<T: Token> FromIterator<(Vec<T>, Vec<Interval>)> for Matching<T> {
    fn from_iter<I: IntoIterator<Item = (Vec<T>, Vec<Interval>)>>(iter: I) -> Self {
        Self { entries: iter.into_iter().collect() }
    }
}

/// Builds a [`Matching`] from the miner's output.
pub fn matching_from_repeats<T: Token>(repeats: &[crate::repeats::Repeat<T>]) -> Matching<T> {
    repeats.iter().map(|r| (r.content.clone(), r.intervals().collect())).collect()
}

/// Best possible coverage by disjoint intervals whose contents each occur
/// at least twice in `s` (occurrences may overlap elsewhere), with every
/// interval at least `min_len` long.
///
/// This upper-bounds the coverage of any valid §3 solution whose traces all
/// genuinely repeat, so it serves as the reference the greedy miner is
/// measured against. Dynamic program over prefix lengths; `O(n²)` states
/// with an `O(1)` repeated-substring test after an `O(n²)` preprocessing
/// pass, so quadratic overall — only suitable for tests and ablations.
pub fn max_coverage_upper_bound<T: Token>(s: &[T], min_len: usize) -> usize {
    let n = s.len();
    if n == 0 {
        return 0;
    }
    // occ2[len-1] = set of start positions whose substring of `len` occurs
    // at least twice in s. Computed per length via hashing.
    let mut repeats_at = vec![vec![false; n]; n + 1];
    for len in min_len..=n {
        let mut seen: HashMap<&[T], Vec<usize>> = HashMap::new();
        for start in 0..=n - len {
            seen.entry(&s[start..start + len]).or_default().push(start);
        }
        for starts in seen.values() {
            if starts.len() >= 2 {
                for &st in starts {
                    repeats_at[len][st] = true;
                }
            }
        }
    }
    // best[i] = max coverage of the prefix s[..i].
    let mut best = vec![0usize; n + 1];
    for i in 1..=n {
        best[i] = best[i - 1];
        #[allow(clippy::needless_range_loop)]
        for len in min_len..=i {
            let start = i - len;
            if repeats_at[len][start] {
                best[i] = best[i].max(best[start] + len);
            }
        }
    }
    best[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repeats::find_repeats;

    /// Tokens for the Figure 2 example: the stream
    /// `T1T2T3 T1T2T3 T1T2 T1T2 T1T2T3 T1T2 T1T2T3`.
    fn figure2_stream() -> Vec<u8> {
        let t123 = [1u8, 2, 3];
        let t12 = [1u8, 2];
        let mut s = Vec::new();
        s.extend_from_slice(&t123); // [0,3)
        s.extend_from_slice(&t123); // [3,6)
        s.extend_from_slice(&t12); // [6,8)
        s.extend_from_slice(&t12); // [8,10)
        s.extend_from_slice(&t123); // [10,13)
        s.extend_from_slice(&t12); // [13,15)
        s.extend_from_slice(&t123); // [15,18)
        s
    }

    #[test]
    fn figure2_invalid_matching_rejected() {
        let s = figure2_stream();
        let mut m = Matching::new();
        // Figure 2's invalid matching: overlapping intervals.
        m.insert(vec![1, 2, 3], vec![Interval::new(0, 3), Interval::new(3, 6)]);
        m.insert(vec![1, 2], vec![Interval::new(3, 5)]);
        let err = m.validate(&s, 2).unwrap_err();
        assert!(matches!(err, MatchingError::OverlappingIntervals(..)), "{err}");
    }

    #[test]
    fn figure2_suboptimal_matching() {
        let s = figure2_stream();
        // Figure 2's sub-optimal matching: T1T2 everywhere, coverage 14.
        let ivs = [(0, 2), (3, 5), (6, 8), (8, 10), (10, 12), (13, 15), (15, 17)]
            .into_iter()
            .map(|(a, b)| Interval::new(a, b))
            .collect();
        let mut m = Matching::new();
        m.insert(vec![1, 2], ivs);
        m.validate(&s, 2).expect("sub-optimal matching is valid");
        assert_eq!(m.coverage(), 14);
        assert_eq!(m.interval_count(), 7);
    }

    #[test]
    fn figure2_optimal_matching() {
        let s = figure2_stream();
        // Figure 2's optimal matching: coverage 18 (full stream).
        let mut m = Matching::new();
        m.insert(
            vec![1, 2, 3],
            [(0, 3), (3, 6), (10, 13), (15, 18)]
                .into_iter()
                .map(|(a, b)| Interval::new(a, b))
                .collect(),
        );
        m.insert(
            vec![1, 2],
            [(6, 8), (8, 10), (13, 15)].into_iter().map(|(a, b)| Interval::new(a, b)).collect(),
        );
        m.validate(&s, 2).expect("optimal matching is valid");
        assert_eq!(m.coverage(), 18);
        assert_eq!(m.coverage(), s.len());
        // And the DP upper bound agrees that 18 is attainable.
        assert_eq!(max_coverage_upper_bound(&s, 2), 18);
    }

    #[test]
    fn miner_output_is_valid_matching() {
        let s = figure2_stream();
        let m = matching_from_repeats(&find_repeats(&s));
        m.validate(&s, 2).expect("miner output validates");
        // The greedy miner should cover most of this easy stream.
        assert!(m.coverage() >= 14, "coverage {}", m.coverage());
    }

    #[test]
    fn content_mismatch_detected() {
        let s = vec![1u8, 2, 3, 1, 2, 3];
        let mut m = Matching::new();
        m.insert(vec![9, 9], vec![Interval::new(0, 2)]);
        assert!(matches!(m.validate(&s, 2).unwrap_err(), MatchingError::ContentMismatch { .. }));
    }

    #[test]
    fn bounds_and_length_checks() {
        let s = vec![1u8, 2, 3, 4];
        let mut m = Matching::new();
        m.insert(vec![3, 4], vec![Interval::new(2, 5)]);
        assert!(matches!(m.validate(&s, 2).unwrap_err(), MatchingError::OutOfBounds(_)));

        let mut m = Matching::new();
        m.insert(vec![1, 2], vec![Interval::new(0, 3)]);
        assert!(matches!(m.validate(&s, 2).unwrap_err(), MatchingError::LengthMismatch(_)));

        let mut m = Matching::new();
        m.insert(vec![1], vec![Interval::new(0, 1)]);
        assert!(matches!(
            m.validate(&s, 2).unwrap_err(),
            MatchingError::TraceTooShort { len: 1, min_len: 2 }
        ));
    }

    #[test]
    fn upper_bound_simple_cases() {
        // No repeats → zero.
        assert_eq!(max_coverage_upper_bound(&[1u8, 2, 3, 4], 2), 0);
        // Perfect tiling.
        assert_eq!(max_coverage_upper_bound(b"abab", 2), 4);
        // "aabcbcbaa": the bound admits overlapping repetition *evidence*
        // ("bcb" occurs twice, overlapping), so aa[0,2) + bcb[2,5) +
        // cb[5,7) + aa[7,9) = 9 — one more than any disjoint-occurrence
        // solution can replay. The bound is intentionally loose.
        assert_eq!(max_coverage_upper_bound(b"aabcbcbaa", 2), 9);
    }

    #[test]
    fn miner_close_to_upper_bound_on_figure4() {
        let s = b"aabcbcbaa";
        let m = matching_from_repeats(&find_repeats(s));
        m.validate(s, 2).expect("valid");
        // Miner: aa×2 + bc×2 = 8; bound: 9 (see above).
        assert_eq!(m.coverage(), 8);
        assert!(m.coverage() <= max_coverage_upper_bound(s, 2));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Greedy coverage never exceeds the DP upper bound, and the
            /// miner's matching always validates.
            #[test]
            fn greedy_below_upper_bound(
                s in proptest::collection::vec(0u8..3, 0..120),
                min_len in 2usize..4,
            ) {
                let reps = crate::repeats::find_repeats_min_len(&s, min_len);
                let m = matching_from_repeats(&reps);
                m.validate(&s, min_len).expect("miner output valid");
                prop_assert!(m.coverage() <= max_coverage_upper_bound(&s, min_len));
            }

            /// On strings that are exact tilings of a repeated block, the
            /// greedy miner covers at least half the stream: its first pick
            /// is the longest non-overlapping repeat, whose two adjacent
            /// chunks alone span ≥ ⌊count/2⌋ blocks each. (Full coverage is
            /// NOT guaranteed — e.g. "bababa", where the misaligned "ab"
            /// group sorts first and splinters the tiling — one of the two
            /// greedy heuristics the paper explicitly trades away.)
            #[test]
            fn greedy_covers_half_of_tilings(
                block in proptest::collection::vec(0u8..4, 2..8),
                count in 2usize..8,
            ) {
                let mut s = Vec::new();
                for _ in 0..count {
                    s.extend_from_slice(&block);
                }
                let m = matching_from_repeats(&crate::repeats::find_repeats(&s));
                m.validate(&s, 2).expect("valid");
                prop_assert!(m.coverage() >= block.len() * (count / 2),
                    "coverage {} below {} for block {:?} x{}",
                    m.coverage(), block.len() * (count / 2), block, count);
            }
        }
    }
}
