//! Suffix array and LCP array construction.
//!
//! The trace finder (Algorithm 2 of the paper) needs, for an arbitrary
//! token alphabet, the suffix array of the history buffer plus the LCP
//! (longest common prefix) array between adjacent suffixes. Everything
//! here runs on a dense `u32` text inside a reusable workspace (the
//! suffix half of [`MiningScratch`](crate::repeats::MiningScratch)):
//!
//! 1. **Compaction** maps tokens to order-preserving ranks `0..σ`: one
//!    pass interns each token in an open-addressing table (`O(n)`
//!    expected; the table holds indices only and is never iterated), the
//!    `σ` distinct tokens — only those — are comparison-sorted
//!    (`O(σ log σ)`), and a second pass rewrites the text through the
//!    resulting rank table.
//! 2. One of two backends builds the suffix array:
//!    [`SuffixBackend::Sais`] (the default; `O(n)`, module `sais`) or
//!    [`SuffixBackend::Doubling`] (prefix doubling with counting-sort
//!    passes, `O(n log n)`), kept as a cross-check and ablation baseline.
//! 3. The inverse permutation and Kasai's LCP construction, both `O(n)`.
//!
//! Both backends produce identical arrays (property-tested in this
//! module), so backend choice is purely a performance knob. No step
//! allocates once the workspace has seen an input at least as long.
//!
//! # Futility exits
//!
//! A miner that only wants repeats of at least `L` tokens says so, and
//! indexing stops as soon as no two suffixes can share `L` leading
//! tokens. Both exits are exact — they never drop a repeat:
//!
//! * after the first compaction pass, when `n − σ < L`: if the suffixes
//!   at `p < q` share `L` tokens, each of the `L` positions `q..q + L`
//!   holds a token already seen `q − p` positions earlier, and only
//!   `n − σ` positions hold a token that is not its first occurrence;
//! * after Kasai, when `max(lcp) < L`: the longest prefix any two
//!   suffixes share is shared by two lexicographically adjacent ones.
//!
//! [`SuffixArray`] is the owned, `usize`-indexed view of one complete
//! build.

use crate::sais;
use crate::Token;
use std::hash::Hasher;

/// Which suffix-array construction algorithm [`SuffixArray::build_with`]
/// runs.
///
/// Both backends yield bit-identical [`SuffixArray`] values; the choice
/// only affects construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuffixBackend {
    /// Prefix doubling with counting-sort passes: `O(n log n)`.
    Doubling,
    /// SA-IS induced sorting: `O(n)` after alphabet compaction.
    #[default]
    Sais,
}

/// Suffix array of a token sequence together with its LCP array.
///
/// For a sequence `S` of length `n`:
///
/// * `sa[i]` is the start position of the `i`-th smallest suffix;
/// * `rank[p]` is the index in `sa` of the suffix starting at `p`
///   (the inverse permutation of `sa`);
/// * `lcp[i]` is the length of the longest common prefix of the suffixes
///   `S[sa[i]..]` and `S[sa[i+1]..]`; `lcp` has length `n - 1` (or 0 for
///   `n <= 1`).
///
/// # Example
///
/// ```
/// use substrings::suffix_array::SuffixArray;
///
/// let sa = SuffixArray::build(b"banana");
/// assert_eq!(sa.sa(), &[5, 3, 1, 0, 4, 2]); // a, ana, anana, banana, na, nana
/// assert_eq!(sa.lcp(), &[1, 3, 0, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixArray {
    sa: Vec<usize>,
    rank: Vec<usize>,
    lcp: Vec<usize>,
}

impl SuffixArray {
    /// Builds the suffix array and LCP array of `s` with the default
    /// backend ([`SuffixBackend::Sais`], linear time).
    ///
    /// Accepts any token type; the alphabet is first compacted to dense
    /// ranks by hashing (`O(n)` expected plus `O(σ log σ)` for `σ`
    /// distinct tokens).
    pub fn build<T: Token>(s: &[T]) -> Self {
        Self::build_with(s, SuffixBackend::default())
    }

    /// Builds the suffix array and LCP array of `s` with an explicit
    /// backend. Both backends return identical results.
    ///
    /// A thin wrapper: one build on a fresh workspace, widened to `usize`.
    pub fn build_with<T: Token>(s: &[T], backend: SuffixBackend) -> Self {
        let mut scratch = SuffixScratch::default();
        scratch.build(s, backend, 0);
        let widen = |v: &[u32]| v.iter().map(|&x| x as usize).collect();
        Self { sa: widen(&scratch.sa), rank: widen(&scratch.rank), lcp: widen(&scratch.lcp) }
    }

    /// The suffix array: positions of suffixes in lexicographic order.
    pub fn sa(&self) -> &[usize] {
        &self.sa
    }

    /// The inverse permutation of [`Self::sa`].
    pub fn rank(&self) -> &[usize] {
        &self.rank
    }

    /// LCP lengths between lexicographically adjacent suffixes
    /// (`lcp()[i]` pairs `sa()[i]` with `sa()[i + 1]`).
    pub fn lcp(&self) -> &[usize] {
        &self.lcp
    }

    /// Number of suffixes (the length of the underlying sequence).
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether the underlying sequence was empty.
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }
}

/// Longest input the `u32` workspace indexes: positions, ranks, LCPs and
/// the up-to-`2n` candidate groups mined from them must all fit a `u32`
/// below the `u32::MAX` sentinel.
pub(crate) const MAX_LEN: usize = (u32::MAX / 2) as usize;

/// Reusable buffers for one suffix-array + LCP construction.
///
/// Every vector grows to the largest input seen and is never shrunk;
/// [`Self::build`] overwrites whatever an earlier call left behind, so
/// one scratch serves inputs of any lengths in any order.
#[derive(Debug, Default)]
pub(crate) struct SuffixScratch {
    /// The input as dense order-preserving ranks.
    pub(crate) text: Vec<u32>,
    pub(crate) sa: Vec<u32>,
    pub(crate) rank: Vec<u32>,
    pub(crate) lcp: Vec<u32>,
    /// SA-IS suffix types, all recursion levels.
    types: Vec<bool>,
    /// Phase-local words: the interning table and distinct-token lists
    /// during compaction, then the backend's buckets and lists; free for
    /// the caller between builds.
    pub(crate) work: Vec<u32>,
}

/// Sets `buf` to `len` copies of `fill`, growing its allocation to
/// exactly `len` if it is smaller: a workspace sized by `Vec`'s doubling
/// would hold up to twice what the largest job needs.
pub(crate) fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.reserve_exact(len);
    buf.resize(len, fill);
}

/// Grows `work` to at least `len` words (exactly, as [`refill`]) and
/// returns that prefix; the contents are unspecified.
pub(crate) fn reserve_words(work: &mut Vec<u32>, len: usize) -> &mut [u32] {
    if work.len() < len {
        work.reserve_exact(len - work.len());
        work.resize(len, 0);
    }
    &mut work[..len]
}

impl SuffixScratch {
    /// Indexes `s`: fills `text`, `sa`, `rank` and `lcp` (lengths `n`,
    /// `n`, `n`, `n - 1`) and returns `true` — unless it can prove that no
    /// two suffixes share `min_lcp` leading tokens (the module docs'
    /// futility exits), in which case it returns `false` early and the
    /// arrays are unspecified. With `min_lcp == 0` it always completes.
    ///
    /// # Panics
    ///
    /// If `s` is longer than [`MAX_LEN`] tokens.
    pub(crate) fn build<T: Token>(
        &mut self,
        s: &[T],
        backend: SuffixBackend,
        min_lcp: usize,
    ) -> bool {
        let n = s.len();
        assert!(n <= MAX_LEN, "suffix workspace indexes at most {MAX_LEN} tokens, got {n}");
        let Some(alphabet) = self.compact(s, min_lcp) else { return false };
        refill(&mut self.sa, n, 0);
        let work = reserve_words(&mut self.work, sais::work_len(n, alphabet));
        match backend {
            SuffixBackend::Doubling => doubling_sa(&self.text, &mut self.sa, work),
            SuffixBackend::Sais => {
                if self.types.len() < 2 * n {
                    refill(&mut self.types, 2 * n, false);
                }
                sais::sais(&self.text, alphabet, &mut self.sa, &mut self.types, work);
            }
        }
        refill(&mut self.rank, n, 0);
        for (i, &p) in self.sa.iter().enumerate() {
            self.rank[p as usize] = i as u32;
        }
        refill(&mut self.lcp, n.saturating_sub(1), 0);
        kasai(&self.text, &self.sa, &self.rank, &mut self.lcp) >= min_lcp
    }

    /// Rewrites `s` into `text` as order-preserving dense ranks and
    /// returns the alphabet size `σ` — or `None`, with `text` holding
    /// discovery-order ids, when `n − σ < min_lcp` (the first exit of
    /// [`Self::build`]).
    ///
    /// The interning table maps a token's hash to the id of the first
    /// position holding it; it stores no tokens (lookups compare through
    /// `s`) and is only ever probed, never iterated, so rank order comes
    /// from the sorted distinct list alone. The hasher is a fixed
    /// multiply-rotate: deterministic across runs and cheap, at the price
    /// of no protection against tokens crafted to collide — a job is
    /// bounded by the caller's slice length either way.
    fn compact<T: Token>(&mut self, s: &[T], min_lcp: usize) -> Option<usize> {
        let n = s.len();
        refill(&mut self.text, n, 0);
        // Load factor ≤ 1/2, so probe sequences stay short.
        let slots = (2 * n).next_power_of_two();
        let shift = u64::BITS - slots.trailing_zeros();
        let (table, lists) = reserve_words(&mut self.work, slots + 2 * n).split_at_mut(slots);
        let (first_pos, order) = lists.split_at_mut(n);
        table.fill(0); // 0 = vacant, otherwise id + 1
        let mut alphabet = 0usize;
        for (i, t) in s.iter().enumerate() {
            let mut hasher = TokenHasher(0);
            t.hash(&mut hasher);
            // `slots == 1` (n == 0) never gets here; otherwise the top
            // `log2(slots)` bits of the product are the best mixed.
            let mut slot = (hasher.0 >> shift) as usize;
            self.text[i] = loop {
                match table[slot] {
                    0 => {
                        table[slot] = alphabet as u32 + 1;
                        first_pos[alphabet] = i as u32;
                        alphabet += 1;
                        break alphabet as u32 - 1;
                    }
                    e if s[first_pos[e as usize - 1] as usize] == *t => break e - 1,
                    _ => slot = (slot + 1) & (slots - 1),
                }
            };
        }
        if n - alphabet < min_lcp {
            return None;
        }
        let (first_pos, order) = (&mut first_pos[..alphabet], &mut order[..alphabet]);
        for (id, slot) in order.iter_mut().enumerate() {
            *slot = id as u32;
        }
        order.sort_unstable_by_key(|&id| s[first_pos[id as usize] as usize]);
        // `first_pos` has served its purpose: reuse it as the id → rank map.
        for (rank, &id) in order.iter().enumerate() {
            first_pos[id as usize] = rank as u32;
        }
        for id in &mut self.text {
            *id = first_pos[*id as usize];
        }
        Some(alphabet)
    }
}

/// The interning table's hasher: one multiply-rotate round per integer
/// written (Firefox's "Fx" mix). `TaskHash`-like tokens are a single
/// `u64`, so hashing a token is one multiplication.
struct TokenHasher(u64);

impl TokenHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.mix(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

/// Stable counting sort of `src` into `dst` by `key`, where keys lie in
/// `0..counts.len() - 1`; returns the number of items. `src` is walked
/// twice.
pub(crate) fn counting_sort<I: Copy>(
    src: impl Iterator<Item = I> + Clone,
    dst: &mut [I],
    counts: &mut [u32],
    key: impl Fn(I) -> usize,
) -> usize {
    counts.fill(0);
    for it in src.clone() {
        counts[key(it) + 1] += 1;
    }
    for b in 1..counts.len() {
        counts[b] += counts[b - 1];
    }
    let total = counts[counts.len() - 1] as usize;
    for it in src {
        let k = key(it);
        dst[counts[k] as usize] = it;
        counts[k] += 1;
    }
    total
}

/// Prefix-doubling suffix array over a dense-ranked text: `O(n log n)`.
fn doubling_sa(text: &[u32], sa: &mut [u32], work: &mut [u32]) {
    let n = text.len();
    if n == 0 {
        return;
    }
    let (rank, work) = work.split_at_mut(n);
    let (tmp_rank, work) = work.split_at_mut(n);
    let (tmp_sa, work) = work.split_at_mut(n);
    let counts = &mut work[..n + 2];
    rank.copy_from_slice(text);
    counting_sort(0..n as u32, sa, &mut counts[..n + 1], |p| rank[p as usize] as usize);

    let mut k = 1usize;
    while k < n {
        // Sort by (rank[p], rank[p + k]) via two stable counting-sort
        // passes: first the secondary key, then the primary key.
        let second = |p: u32| rank.get(p as usize + k).map_or(0, |&r| r as usize + 1);
        counting_sort(sa.iter().copied(), tmp_sa, counts, second);
        counting_sort(tmp_sa.iter().copied(), sa, &mut counts[..n + 1], |p| {
            rank[p as usize] as usize
        });

        // Re-rank: adjacent entries with equal key pairs share a rank.
        tmp_rank[sa[0] as usize] = 0;
        for w in sa.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            let same = rank[prev as usize] == rank[cur as usize] && second(prev) == second(cur);
            tmp_rank[cur as usize] = tmp_rank[prev as usize] + u32::from(!same);
        }
        rank.copy_from_slice(tmp_rank);
        if rank[sa[n - 1] as usize] as usize == n - 1 {
            break; // All suffixes distinguished.
        }
        k *= 2;
    }
}

/// Kasai's linear-time LCP construction over the dense-ranked text;
/// returns the largest entry (0 when there are fewer than two suffixes).
fn kasai(text: &[u32], sa: &[u32], rank: &[u32], lcp: &mut [u32]) -> usize {
    let n = text.len();
    let (mut h, mut max) = (0usize, 0usize);
    for p in 0..n {
        let r = rank[p] as usize;
        if r + 1 == n {
            h = 0;
            continue;
        }
        let q = sa[r + 1] as usize;
        while p + h < n && q + h < n && text[p + h] == text[q + h] {
            h += 1;
        }
        lcp[r] = h as u32;
        max = max.max(h);
        h = h.saturating_sub(1);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference construction by sorting all suffixes (O(n² log n)).
    fn naive_sa<T: Token>(s: &[T]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..s.len()).collect();
        idx.sort_by(|&a, &b| s[a..].cmp(&s[b..]));
        idx
    }

    fn naive_lcp<T: Token>(s: &[T], sa: &[usize]) -> Vec<usize> {
        sa.windows(2)
            .map(|w| {
                let (a, b) = (&s[w[0]..], &s[w[1]..]);
                a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
            })
            .collect()
    }

    /// Both backends must produce the same `SuffixArray` value (sa, rank,
    /// and lcp alike).
    fn check_backend_parity<T: Token>(s: &[T]) {
        let doubling = SuffixArray::build_with(s, SuffixBackend::Doubling);
        let sais = SuffixArray::build_with(s, SuffixBackend::Sais);
        assert_eq!(doubling, sais, "backend mismatch on {s:?}");
    }

    #[test]
    fn empty_and_singleton() {
        let sa = SuffixArray::build::<u8>(&[]);
        assert!(sa.is_empty());
        assert_eq!(sa.lcp(), &[] as &[usize]);

        let sa = SuffixArray::build(b"x");
        assert_eq!(sa.sa(), &[0]);
        assert_eq!(sa.len(), 1);
        assert_eq!(sa.lcp(), &[] as &[usize]);

        check_backend_parity::<u8>(&[]);
        check_backend_parity(b"x".as_slice());
    }

    #[test]
    fn banana() {
        for backend in [SuffixBackend::Doubling, SuffixBackend::Sais] {
            let sa = SuffixArray::build_with(b"banana", backend);
            assert_eq!(sa.sa(), &[5, 3, 1, 0, 4, 2]);
            assert_eq!(sa.lcp(), &[1, 3, 0, 0, 2]);
            // rank is the inverse permutation.
            for (i, &p) in sa.sa().iter().enumerate() {
                assert_eq!(sa.rank()[p], i);
            }
        }
    }

    #[test]
    fn figure4_string() {
        // The paper's Figure 4 walks Algorithm 2 over "aabcbcbaa"; its
        // suffix array column (start indices) is 8,7,0,1,6,4,2,5,3.
        let sa = SuffixArray::build(b"aabcbcbaa");
        assert_eq!(sa.sa(), &[8, 7, 0, 1, 6, 4, 2, 5, 3]);
        check_backend_parity(b"aabcbcbaa".as_slice());
    }

    #[test]
    fn all_equal_tokens() {
        let s = vec![7u64; 64];
        check_backend_parity(&s);
        let sa = SuffixArray::build(&s);
        // Suffixes sort by decreasing start (shortest first).
        let expect: Vec<usize> = (0..64).rev().collect();
        assert_eq!(sa.sa(), expect.as_slice());
        // LCP between adjacent = length of the shorter suffix.
        for (i, &l) in sa.lcp().iter().enumerate() {
            assert_eq!(l, i + 1);
        }
    }

    #[test]
    fn matches_naive_on_fixed_corpus() {
        let corpus: &[&[u8]] = &[
            b"abracadabra",
            b"mississippi",
            b"aaaabaaaab",
            b"abcabcabcabc",
            b"zyxwvu",
            b"aabcbcbaa",
            b"abababab",
        ];
        for s in corpus {
            check_backend_parity(s);
            for backend in [SuffixBackend::Doubling, SuffixBackend::Sais] {
                let sa = SuffixArray::build_with(s, backend);
                assert_eq!(sa.sa(), naive_sa(s).as_slice(), "sa mismatch on {s:?}");
                assert_eq!(sa.lcp(), naive_lcp(s, sa.sa()).as_slice(), "lcp mismatch on {s:?}");
            }
        }
    }

    #[test]
    fn large_alphabet_u64() {
        // Tokens far apart in value must still compact correctly.
        let s: Vec<u64> = vec![u64::MAX, 0, 1 << 40, u64::MAX, 0, 1 << 40, u64::MAX];
        check_backend_parity(&s);
        let sa = SuffixArray::build(&s);
        assert_eq!(sa.sa(), naive_sa(&s).as_slice());
        assert_eq!(sa.lcp(), naive_lcp(&s, sa.sa()).as_slice());
    }

    #[test]
    fn compaction_preserves_order_and_density() {
        let s: Vec<u64> = vec![900, 3, 900, 77, 3, 1 << 50];
        let mut scratch = SuffixScratch::default();
        assert_eq!(scratch.compact(&s, 0), Some(4));
        assert_eq!(scratch.text, vec![2, 0, 2, 1, 0, 3]);
        // Two positions repeat an earlier token: a shared prefix of three
        // is impossible, and compaction says so before ranking anything.
        assert_eq!(scratch.compact(&s, 2), Some(4));
        assert_eq!(scratch.compact(&s, 3), None);
    }

    #[test]
    fn futile_builds_stop_early_and_leave_the_scratch_reusable() {
        let mut scratch = SuffixScratch::default();
        // "abcabd": n − σ = 2 passes the first exit for min_lcp 2, and the
        // longest shared prefix ("ab") is exactly 2.
        assert!(scratch.build(b"abcabd", SuffixBackend::Sais, 2));
        assert_eq!(scratch.lcp.iter().max(), Some(&2));
        // "abab" + "ba": n − σ = 4 admits min_lcp 3, Kasai refutes it.
        assert!(!scratch.build(b"ababba", SuffixBackend::Sais, 3));
        // All distinct: refuted by the count alone.
        assert!(!scratch.build(b"abcdef", SuffixBackend::Doubling, 1));
        // A shorter input after longer ones sees no stale state.
        assert!(scratch.build(b"banana", SuffixBackend::Sais, 3));
        assert_eq!(scratch.sa, [5, 3, 1, 0, 4, 2]);
        assert_eq!(scratch.lcp, [1, 3, 0, 0, 2]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn agrees_with_naive(s in proptest::collection::vec(0u8..6, 0..200)) {
                let sa = SuffixArray::build(&s);
                let expect_sa = naive_sa(&s);
                let expect_lcp = naive_lcp(&s, sa.sa());
                prop_assert_eq!(sa.sa(), expect_sa.as_slice());
                prop_assert_eq!(sa.lcp(), expect_lcp.as_slice());
            }

            #[test]
            fn rank_is_inverse(s in proptest::collection::vec(0u16..40, 0..300)) {
                let sa = SuffixArray::build(&s);
                for (i, &p) in sa.sa().iter().enumerate() {
                    prop_assert_eq!(sa.rank()[p], i);
                }
            }

            #[test]
            fn sa_is_permutation(s in proptest::collection::vec(any::<u8>(), 0..250)) {
                let sa = SuffixArray::build(&s);
                let mut seen = vec![false; s.len()];
                for &p in sa.sa() {
                    prop_assert!(!seen[p]);
                    seen[p] = true;
                }
                prop_assert!(seen.iter().all(|&b| b));
            }

            /// Backend parity on random inputs: identical sa, rank, AND
            /// lcp arrays.
            #[test]
            fn backends_agree_random(s in proptest::collection::vec(any::<u16>(), 0..300)) {
                check_backend_parity(&s);
            }

            /// Backend parity on periodic inputs (repeat-dense worst case
            /// for the overlap machinery).
            #[test]
            fn backends_agree_periodic(
                period in 1usize..9,
                reps in 1usize..40,
            ) {
                let s: Vec<u32> = (0..period * reps).map(|i| (i % period) as u32).collect();
                check_backend_parity(&s);
            }

            /// Backend parity on all-equal and degenerate short inputs.
            #[test]
            fn backends_agree_all_equal(len in 0usize..130, tok in any::<u64>()) {
                let s = vec![tok; len];
                check_backend_parity(&s);
            }
        }
    }
}
