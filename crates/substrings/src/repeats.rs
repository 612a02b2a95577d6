//! Non-overlapping repeated substring mining — Algorithm 2 of the paper.
//!
//! This is the trace finder's core analysis (spelled
//! `quick_matching_of_substrings` in the artifact's command-line flags): a
//! single pass over the suffix array + LCP array of the history buffer
//! collects candidate repeats, then a greedy longest-first sweep selects as
//! many non-overlapping occurrences as possible.
//!
//! # One kernel, one workspace
//!
//! [`find_repeats_into`] is the only implementation; [`find_repeats`],
//! [`find_repeats_min_len`] and [`find_repeats_min_len_with`] call it on
//! a fresh [`MiningScratch`]. A caller that mines repeatedly — the trace
//! finder — owns one scratch per mining thread and passes it to every
//! job: all intermediate state lives in its `u32` buffers, which grow to
//! the largest slice seen and are never shrunk, so a warm kernel
//! allocates nothing but the `Vec<Repeat<T>>` it returns (one vector for
//! the list, a `content` and an `occurrences` vector per repeat, each at
//! its exact size). A scratch carries no information from one call to
//! the next; reusing, replacing or dropping it never changes a result.
//!
//! # Cost
//!
//! With the default SA-IS backend a job over `n` tokens with `σ`
//! distinct ones costs `O(n + σ log σ)`: suffix indexing (see
//! [`crate::suffix_array`]); one pass over adjacent suffix pairs
//! emitting at most `2(n − 1)` candidate occurrences; four stable
//! counting-sort passes (keys are ranks, lengths, starts and group ids,
//! all `≤ 2n`) that produce the `(length ↓, rank)` order for grouping and
//! the `(length ↓, group, start)` order for selection; a union-find over
//! suffix ranks, merged in descending-LCP order, that answers "do these
//! two occurrences have equal content?" in near-constant time; and the
//! greedy sweep, whose interval-intersection test is two lookups in a
//! coverage-mark array, exactly as §4.2 describes. Prefix doubling makes
//! the first step `O(n log n)`. Most futile jobs never get that far:
//! indexing stops as soon as it can prove no repeat of the minimum
//! length exists (the two futility exits of [`crate::suffix_array`]).
//!
//! The algorithm trades optimality of the §3 objective for speed in two
//! places (both called out in the paper): only maximal repetitions of each
//! adjacent suffix pair are considered, and selection is greedy
//! longest-first rather than a bin-packing computation. The longest
//! non-overlapping repeat is found up to a factor ≤ 2 lost on highly
//! periodic inputs (the overlap branch rounds chunk lengths down to a
//! multiple of the period); on aperiodic repeats it is found exactly.
//! [`crate::coverage::max_coverage_upper_bound`] provides a reference bound
//! for small inputs to measure the coverage gap.

use crate::suffix_array::{counting_sort, refill, reserve_words, SuffixBackend, SuffixScratch};
use crate::{Interval, Token};

/// A repeated substring selected by [`find_repeats`], together with the
/// non-overlapping start positions chosen for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repeat<T> {
    /// The repeated token sequence.
    pub content: Vec<T>,
    /// Selected (mutually non-overlapping) occurrence start positions, in
    /// increasing order.
    pub occurrences: Vec<usize>,
}

impl<T> Repeat<T> {
    /// Length of the repeated substring.
    pub fn len(&self) -> usize {
        self.content.len()
    }

    /// Whether the repeat is the empty string (never produced by mining).
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// The selected occurrences as intervals of the mined sequence.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        let len = self.content.len();
        self.occurrences.iter().map(move |&s| Interval::new(s, s + len))
    }

    /// Total number of positions covered by the selected occurrences.
    pub fn coverage(&self) -> usize {
        self.content.len() * self.occurrences.len()
    }
}

/// Reusable workspace of the mining kernel ([`find_repeats_into`]).
///
/// Holds the suffix index of the slice being mined and the candidate
/// buffers; see the module docs for its lifetime rules. `Default` is an
/// empty workspace that sizes itself on first use.
#[derive(Debug, Default)]
pub struct MiningScratch {
    index: SuffixScratch,
    /// Candidate occurrences, one packed word each; the two buffers
    /// alternate as source and destination of the counting-sort passes.
    cands: Vec<u64>,
    spare: Vec<u64>,
    /// Positions already claimed by a selected occurrence.
    covered: Vec<bool>,
}

/// Packs a candidate: the sort passes move one word, and the packed
/// values of the final `(group, start)` pairs ascend in selection order.
fn pack(top: u32, start: u32) -> u64 {
    u64::from(top) << 32 | u64::from(start)
}

fn top(cand: u64) -> usize {
    (cand >> 32) as usize
}

fn start(cand: u64) -> usize {
    cand as u32 as usize
}

/// Mines `s` for non-overlapping repeated substrings of length ≥ 2.
///
/// Equivalent to [`find_repeats_min_len`]`(s, 2)`; length-1 repeats are
/// never useful as traces (the paper's minimum-length constraint exists
/// precisely to amortize the constant replay cost).
///
/// # Example
///
/// The paper's Figure 4 input:
///
/// ```
/// use substrings::repeats::find_repeats;
/// let reps = find_repeats(b"aabcbcbaa");
/// let contents: Vec<&[u8]> = reps.iter().map(|r| r.content.as_slice()).collect();
/// assert_eq!(contents, vec![b"aa".as_slice(), b"bc".as_slice()]);
/// ```
pub fn find_repeats<T: Token>(s: &[T]) -> Vec<Repeat<T>> {
    find_repeats_min_len(s, 2)
}

/// Mines `s` for non-overlapping repeated substrings of length ≥ `min_len`.
///
/// Returns repeats ordered by decreasing length (ties broken by content
/// group discovery order); each repeat lists at least one occurrence, and
/// all selected occurrences across all repeats are mutually disjoint.
///
/// `min_len` maps to the runtime flag `-lg:auto_trace:min_trace_length`.
pub fn find_repeats_min_len<T: Token>(s: &[T], min_len: usize) -> Vec<Repeat<T>> {
    find_repeats_min_len_with(s, min_len, SuffixBackend::default())
}

/// [`find_repeats_min_len`] with an explicit suffix-array backend.
///
/// The backend is a pure performance knob — both produce identical
/// suffix/LCP arrays, so the mined repeats are bit-identical; the finder
/// exposes it as a configuration option and the `mining_throughput` bench
/// races the two.
pub fn find_repeats_min_len_with<T: Token>(
    s: &[T],
    min_len: usize,
    backend: SuffixBackend,
) -> Vec<Repeat<T>> {
    find_repeats_into(&mut MiningScratch::default(), s, min_len, backend)
}

/// The mining kernel: [`find_repeats_min_len_with`] on a caller-owned
/// workspace. The result depends on `s` and `min_len` only — never on
/// what `scratch` was used for before, nor on `backend`.
///
/// # Panics
///
/// If `s` is longer than `u32::MAX / 2` tokens (the workspace is `u32`).
pub fn find_repeats_into<T: Token>(
    scratch: &mut MiningScratch,
    s: &[T],
    min_len: usize,
    backend: SuffixBackend,
) -> Vec<Repeat<T>> {
    let min_len = min_len.max(1);
    let n = s.len();
    if n < 2 * min_len || !scratch.index.build(s, backend, min_len) {
        return Vec::new();
    }
    let MiningScratch { index, cands, spare, covered } = scratch;
    collect_candidates(index, min_len, cands);
    if cands.is_empty() {
        return Vec::new(); // Only overlapping runs too short to split.
    }
    refill(spare, cands.len(), 0);

    // The suffix index is done with its phase-local words; carve ours.
    // There are at most `cands.len() ≤ 2(n − 1)` groups.
    let words = reserve_words(&mut index.work, 3 * n + 1 + 2 * cands.len());
    let (counts, words) = words.split_at_mut(n + 1);
    let (parent, words) = words.split_at_mut(n);
    let (by_lcp, words) = words.split_at_mut(n);
    let (group_len, group_at) = words.split_at_mut(cands.len());
    let (rank, lcp) = (index.rank.as_slice(), index.lcp.as_slice());

    // (length ↓, rank): least significant key first. Equal keys mean equal
    // candidates, so the order is unique.
    counting_sort(cands.iter().copied(), spare, counts, |c| rank[start(c)] as usize);
    counting_sort(spare.iter().copied(), cands, counts, |c| n - top(c));

    // Two candidates share a group iff they have equal length and equal
    // content. Equal-length candidates with equal content are contiguous
    // in rank order, and the suffixes ranked `a < b` share `len` tokens
    // iff every `lcp[a..b]` is ≥ `len`: walking candidates by descending
    // length, unite ranks `i` and `i + 1` once `lcp[i]` reaches the
    // current length, and "same content" is "same set".
    let linked = (0..lcp.len() as u32).filter(|&i| lcp[i as usize] as usize >= min_len);
    let links = counting_sort(linked, by_lcp, counts, |i| n - lcp[i as usize] as usize);
    let mut links = by_lcp[..links].iter().map(|&i| i as usize).peekable();
    for (r, p) in parent.iter_mut().enumerate() {
        *p = r as u32;
    }
    let mut groups = 0usize;
    let mut open = None; // (length, set) of the group being numbered
    for (at, cand) in cands.iter_mut().enumerate() {
        let len = top(*cand);
        while let Some(i) = links.next_if(|&i| lcp[i] as usize >= len) {
            let (a, b) = (find(parent, i), find(parent, i + 1));
            parent[b] = a as u32;
        }
        let key = (len, find(parent, rank[start(*cand)] as usize));
        if open != Some(key) {
            open = Some(key);
            group_len[groups] = len as u32;
            group_at[groups] = at as u32;
            groups += 1;
        }
        *cand = pack(groups as u32 - 1, start(*cand) as u32);
    }

    // (length ↓, group, start) = (group, start), groups being numbered by
    // descending length: sort by start, then scatter into the groups'
    // slots, which are the runs they already occupy.
    counting_sort(cands.iter().copied(), spare, counts, start);
    for &cand in spare.iter() {
        let at = &mut group_at[top(cand)];
        cands[*at as usize] = cand;
        *at += 1;
    }

    // Greedy longest-first selection with O(1) intersection checks: every
    // previously selected interval is at least as long as the current
    // candidate, so intersection implies one of the candidate's endpoints
    // is already covered. A substring with a single surviving occurrence
    // (the others stolen by longer repeats) still repeats in the stream,
    // so it is kept — the replayer's scoring decides its fate.
    refill(covered, n, false);
    spare.clear();
    for &cand in cands.iter() {
        let (from, len) = (start(cand), group_len[top(cand)] as usize);
        if covered[from] || covered[from + len - 1] {
            continue;
        }
        covered[from..from + len].fill(true);
        spare.push(cand);
    }
    // A group's survivors are contiguous and ascend by start.
    let selected = spare.chunk_by(|a, b| top(*a) == top(*b));
    let mut out = Vec::with_capacity(selected.clone().count());
    out.extend(selected.map(|run| {
        let (from, len) = (start(run[0]), group_len[top(run[0])] as usize);
        Repeat {
            content: s[from..from + len].to_vec(),
            occurrences: run.iter().map(|&c| start(c)).collect(),
        }
    }));
    out
}

/// Pass 1 of Algorithm 2: walk adjacent suffix-array entries and emit
/// candidate occurrences as packed `(length, start)` words.
fn collect_candidates(index: &SuffixScratch, min_len: usize, cands: &mut Vec<u64>) {
    cands.clear();
    cands.reserve_exact(2 * index.lcp.len());
    for (pair, &p) in index.sa.windows(2).zip(&index.lcp) {
        if (p as usize) < min_len {
            continue;
        }
        let (s1, s2) = (pair[0], pair[1]);
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        if lo + p <= hi {
            // The two occurrences do not overlap in the string.
            cands.push(pack(p, s1));
            cands.push(pack(p, s2));
        } else {
            // Overlapping occurrences: by the structure of the suffix
            // array the overlap is a run of repeats of period d = hi - lo.
            // Split the run into two adjacent non-overlapping chunks.
            let d = hi - lo;
            let mut l = (p + d) / 2;
            l -= l % d;
            if l as usize >= min_len {
                cands.push(pack(l, lo));
                cands.push(pack(l, lo + l));
            }
        }
    }
}

/// Union-find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        parent[x] = parent[parent[x] as usize];
        x = parent[x] as usize;
    }
    x
}

/// Total coverage (§3 objective value) of a mined repeat set.
pub fn total_coverage<T>(repeats: &[Repeat<T>]) -> usize {
    repeats.iter().map(Repeat::coverage).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn contents<T: Token>(reps: &[Repeat<T>]) -> Vec<Vec<T>> {
        reps.iter().map(|r| r.content.clone()).collect()
    }

    /// All selected intervals across all repeats must be pairwise disjoint
    /// and must actually match their repeat's content.
    fn check_well_formed<T: Token>(s: &[T], reps: &[Repeat<T>], min_len: usize) {
        let mut all: Vec<Interval> = Vec::new();
        for r in reps {
            assert!(r.len() >= min_len, "repeat shorter than min_len: {r:?}");
            for iv in r.intervals() {
                assert_eq!(&s[iv.start..iv.end], r.content.as_slice(), "occurrence mismatch");
                all.push(iv);
            }
        }
        all.sort();
        for w in all.windows(2) {
            assert!(!w[0].overlaps(&w[1]), "overlapping selections {w:?}");
        }
    }

    #[test]
    fn figure4_output() {
        // Figure 4: FindRepeats("aabcbcbaa") = { aa, bc }.
        let reps = find_repeats(b"aabcbcbaa");
        assert_eq!(contents(&reps), vec![b"aa".to_vec(), b"bc".to_vec()]);
        // aa selected at 0 and 7; bc at 2 and 4.
        assert_eq!(reps[0].occurrences, vec![0, 7]);
        assert_eq!(reps[1].occurrences, vec![2, 4]);
        check_well_formed(b"aabcbcbaa", &reps, 2);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(find_repeats::<u8>(&[]).is_empty());
        assert!(find_repeats(b"a").is_empty());
        assert!(find_repeats(b"ab").is_empty());
        assert!(find_repeats(b"abc").is_empty());
        // Shortest input with a length-2 repeat.
        let reps = find_repeats(b"abab");
        assert_eq!(contents(&reps), vec![b"ab".to_vec()]);
        assert_eq!(reps[0].occurrences, vec![0, 2]);
    }

    #[test]
    fn pure_tandem_run() {
        // "abababab" → period ab; greedy should tile it completely.
        let s = b"abababab";
        let reps = find_repeats(s);
        check_well_formed(s, &reps, 2);
        assert_eq!(total_coverage(&reps), 8);
    }

    #[test]
    fn all_same_token() {
        let s = vec![9u8; 17];
        let reps = find_repeats(&s);
        check_well_formed(&s, &reps, 2);
        // Nearly everything should be covered (at most min_len-1 + remainder
        // positions uncovered).
        assert!(total_coverage(&reps) >= 14, "coverage {}", total_coverage(&reps));
    }

    #[test]
    fn repeats_separated_by_noise() {
        // The motivating case for relaxing tandem repeats: a loop body
        // interrupted by irregular convergence checks.
        // body = "wxyz", noise tokens q, r, s interleave.
        let s = b"wxyzqwxyzrwxyzswxyz";
        let reps = find_repeats(s);
        check_well_formed(s, &reps, 2);
        let body = reps.iter().find(|r| r.content == b"wxyz".to_vec());
        let body = body.expect("loop body found despite noise");
        assert!(body.occurrences.len() >= 4, "found {:?}", body.occurrences);
    }

    #[test]
    fn longest_repeat_always_found() {
        // The paper guarantees the longest repeated substring is selected.
        let s = b"qqabcdefabcdefqq";
        let reps = find_repeats(s);
        assert_eq!(reps[0].content, b"abcdef".to_vec());
        assert_eq!(reps[0].occurrences, vec![2, 8]);
    }

    #[test]
    fn min_len_filters_short_repeats() {
        let s = b"aabcbcbaa";
        let reps = find_repeats_min_len(s, 3);
        // No repeated substring of length >= 3 exists.
        assert!(reps.is_empty(), "{reps:?}");
        // min_len = 1 admits single-token repeats.
        let reps1 = find_repeats_min_len(s, 1);
        check_well_formed(s, &reps1, 1);
        assert!(total_coverage(&reps1) >= total_coverage(&find_repeats(s)));
    }

    #[test]
    fn jacobi_period_two_stream() {
        // Figure 1's steady state: the region allocator alternates x1/x2,
        // so the repeating unit spans TWO source-level iterations:
        //   DOT(R,x1,t1) SUB(b,t1,t2) DIV(t2,d,x2) DOT(R,x2,t1) ...
        // Encode each distinct (task, args) as a token; the stream is a
        // 6-token period repeated.
        let period: Vec<u16> = vec![1, 2, 3, 4, 5, 6];
        let mut s = Vec::new();
        for _ in 0..8 {
            s.extend_from_slice(&period);
        }
        let reps = find_repeats(&s);
        check_well_formed(&s, &reps, 2);
        assert_eq!(total_coverage(&reps), s.len());
        // The dominant repeat must be a multiple of the 6-token period.
        assert_eq!(reps[0].len() % 6, 0, "dominant repeat {:?}", reps[0].len());
    }

    #[test]
    fn backend_choice_never_changes_mining() {
        let corpus: &[&[u8]] = &[b"aabcbcbaa", b"abababab", b"qqabcdefabcdefqq", b"banana"];
        for s in corpus {
            let sais = find_repeats_min_len_with(s, 2, SuffixBackend::Sais);
            let doubling = find_repeats_min_len_with(s, 2, SuffixBackend::Doubling);
            assert_eq!(sais, doubling, "backend changed mining on {s:?}");
        }
    }

    #[test]
    fn no_repeats_in_all_distinct() {
        let s: Vec<u32> = (0..500).collect();
        assert!(find_repeats(&s).is_empty());
    }

    #[test]
    fn coverage_of_long_period_with_prefix() {
        // A long unique startup phase followed by a repetitive main loop.
        let mut s: Vec<u32> = (1000..1100).collect(); // unique prefix
        let period: Vec<u32> = (0..50).collect();
        for _ in 0..10 {
            s.extend_from_slice(&period);
        }
        let reps = find_repeats(&s);
        check_well_formed(&s, &reps, 2);
        // All 500 loop positions should be covered.
        assert!(total_coverage(&reps) >= 500, "coverage {}", total_coverage(&reps));
    }

    /// Reference Algorithm 2, written for obviousness: naive suffix sort,
    /// naive LCPs, comparison sorts and an `O(len)` content comparison
    /// for grouping. The kernel must return exactly this, order included.
    fn oracle<T: Token>(s: &[T], min_len: usize) -> Vec<Repeat<T>> {
        let (n, min_len) = (s.len(), min_len.max(1));
        if n < 2 * min_len {
            return Vec::new();
        }
        let mut sa: Vec<usize> = (0..n).collect();
        sa.sort_by(|&a, &b| s[a..].cmp(&s[b..]));
        let mut rank = vec![0; n];
        for (i, &p) in sa.iter().enumerate() {
            rank[p] = i;
        }
        let mut cands: Vec<(usize, usize)> = Vec::new(); // (len, start)
        for w in sa.windows(2) {
            let (lo, hi) = (w[0].min(w[1]), w[0].max(w[1]));
            let p = s[lo..].iter().zip(&s[hi..]).take_while(|(x, y)| x == y).count();
            let d = hi - lo;
            let l = (p + d) / 2 / d * d;
            if p >= min_len && lo + p <= hi {
                cands.extend([(p, w[0]), (p, w[1])]);
            } else if p >= min_len && l >= min_len {
                cands.extend([(l, lo), (l, lo + l)]);
            }
        }
        cands.sort_by_key(|&(len, start)| (Reverse(len), rank[start]));
        let mut grouped: Vec<(usize, usize, usize)> = Vec::new(); // (len, group, start)
        for (i, &(len, start)) in cands.iter().enumerate() {
            let group = grouped.last().map_or(0, |&(_, g, _)| {
                let (prev_len, prev) = cands[i - 1];
                let same = prev_len == len && s[prev..prev + len] == s[start..start + len];
                g + usize::from(!same)
            });
            grouped.push((len, group, start));
        }
        grouped.sort_by_key(|&(len, group, start)| (Reverse(len), group, start));
        let mut covered = vec![false; n];
        let mut out: Vec<(usize, Repeat<T>)> = Vec::new();
        for (len, group, start) in grouped {
            if covered[start] || covered[start + len - 1] {
                continue;
            }
            covered[start..start + len].fill(true);
            match out.iter_mut().find(|(g, _)| *g == group) {
                Some((_, r)) => r.occurrences.push(start),
                None => {
                    let content = s[start..start + len].to_vec();
                    out.push((group, Repeat { content, occurrences: vec![start] }));
                }
            }
        }
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Both backends, through the caller's (possibly well-used) scratch,
    /// return the oracle's value.
    fn check_against_oracle<T: Token>(scratch: &mut MiningScratch, s: &[T], min_len: usize) {
        let expect = oracle(s, min_len);
        for backend in [SuffixBackend::Sais, SuffixBackend::Doubling] {
            let got = find_repeats_into(scratch, s, min_len, backend);
            assert_eq!(got, expect, "{backend:?}, min_len {min_len}, on {s:?}");
        }
    }

    #[test]
    fn oracle_reproduces_figure4() {
        let reps = oracle(b"aabcbcbaa", 2);
        assert_eq!(contents(&reps), vec![b"aa".to_vec(), b"bc".to_vec()]);
        assert_eq!((&reps[0].occurrences, &reps[1].occurrences), (&vec![0, 7], &vec![2, 4]));
    }

    #[test]
    fn uniform_and_repeat_free_inputs_match_oracle_through_one_scratch() {
        let mut scratch = MiningScratch::default();
        // Descending lengths: every call but the first runs in buffers
        // sized (and dirtied) by a longer input.
        for len in (0..130usize).rev().step_by(7) {
            for min_len in [1, 2, 5, 30] {
                check_against_oracle(&mut scratch, &vec![7u64; len], min_len);
                let distinct: Vec<u64> =
                    (0..len as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
                check_against_oracle(&mut scratch, &distinct, min_len);
                assert!(find_repeats_min_len(&distinct, min_len).is_empty());
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Selected occurrences are disjoint, match their content, and
            /// respect the minimum length, for arbitrary small-alphabet
            /// strings (small alphabets maximize repeat density).
            #[test]
            fn well_formed(
                s in proptest::collection::vec(0u8..4, 0..400),
                min_len in 1usize..6,
            ) {
                let reps = find_repeats_min_len(&s, min_len);
                let mut all: Vec<Interval> = Vec::new();
                for r in &reps {
                    prop_assert!(r.len() >= min_len);
                    for iv in r.intervals() {
                        prop_assert_eq!(&s[iv.start..iv.end], r.content.as_slice());
                        all.push(iv);
                    }
                }
                all.sort();
                for w in all.windows(2) {
                    prop_assert!(!w[0].overlaps(&w[1]));
                }
            }

            /// Every substring the miner reports really does occur at least
            /// twice in the input (possibly overlapping).
            #[test]
            fn reported_content_repeats(s in proptest::collection::vec(0u8..3, 4..300)) {
                let reps = find_repeats(&s);
                for r in &reps {
                    let occ = s
                        .windows(r.content.len())
                        .filter(|w| *w == r.content.as_slice())
                        .count();
                    prop_assert!(occ >= 2, "substring {:?} occurs {} time(s)", r.content, occ);
                }
            }

            /// The miner's longest find is sandwiched against the true
            /// longest non-overlapping repeat (by brute force): never
            /// longer, and at least half as long. Exact equality does NOT
            /// hold on periodic inputs — e.g. "0101010", whose longest
            /// non-overlapping repeat "010" (at 0 and 4) is invisible to
            /// Algorithm 2 because both adjacent suffix pairs take the
            /// overlap branch and round the chunk length down to a multiple
            /// of the period d = 2. This is inherent to the paper's
            /// pseudocode, which trades optimality for O(n log n).
            #[test]
            fn finds_longest_repeat(s in proptest::collection::vec(0u8..3, 4..120)) {
                let n = s.len();
                let mut longest = 0usize;
                for len in (2..=n / 2).rev() {
                    let mut found = false;
                    'outer: for i in 0..=n - len {
                        for j in i + len..=n - len {
                            if s[i..i + len] == s[j..j + len] {
                                found = true;
                                break 'outer;
                            }
                        }
                    }
                    if found {
                        longest = len;
                        break;
                    }
                }
                let reps = find_repeats(&s);
                let got = reps.iter().map(|r| r.len()).max().unwrap_or(0);
                prop_assert!(got <= longest, "selected {got} > brute-force longest {longest}");
                prop_assert!(got >= longest.div_ceil(2), "selected {got} < half of {longest}");
            }

            /// The kernel equals the oracle as whole values on
            /// repeat-dense strings — and one scratch serves a run of
            /// jobs of unrelated lengths, as a mining thread's does.
            #[test]
            fn kernel_matches_oracle_on_small_alphabets(
                jobs in proptest::collection::vec(
                    (proptest::collection::vec(0u8..4, 0..600), 1usize..30),
                    1..5,
                ),
            ) {
                let mut scratch = MiningScratch::default();
                for (s, min_len) in &jobs {
                    check_against_oracle(&mut scratch, s, *min_len);
                }
            }

            /// The finder's shape: a loop body repeated, interrupted by
            /// tokens that occur nowhere else.
            #[test]
            fn kernel_matches_oracle_on_noisy_periodic_streams(
                jobs in proptest::collection::vec(
                    (1usize..40, 0usize..600, proptest::collection::vec(0usize..600, 0..8), 1usize..30),
                    1..4,
                ),
            ) {
                let mut scratch = MiningScratch::default();
                for (period, len, noise, min_len) in &jobs {
                    let mut s: Vec<u64> = (0..*len).map(|i| (i % period) as u64).collect();
                    for (k, &at) in noise.iter().enumerate() {
                        if let Some(slot) = s.get_mut(at) {
                            *slot = u64::MAX - k as u64;
                        }
                    }
                    check_against_oracle(&mut scratch, &s, *min_len);
                }
            }
        }
    }
}
