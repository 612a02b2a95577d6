//! SA-IS: suffix array construction by induced sorting, over a dense
//! `u32` text and caller-provided buffers.
//!
//! The paper's complexity budget (§4.2) cites linear-time suffix array
//! construction (Kasai et al. for LCP; SA-IS / DC3 for the array itself).
//! This module is the **default backend** of the mining kernel
//! ([`SuffixBackend::Sais`](crate::suffix_array::SuffixBackend)); prefix
//! doubling (`O(n log n)`) remains available as
//! [`SuffixBackend::Doubling`](crate::suffix_array::SuffixBackend) and is
//! cross-checked against this implementation by property tests and raced
//! in the `mining_throughput` bench.
//!
//! The algorithm classifies suffixes as S-type (smaller than their right
//! neighbor) or L-type, locates the leftmost-S (LMS) positions, induce-
//! sorts from an approximate LMS order, names the LMS substrings, recurses
//! if names collide, and induce-sorts once more from the exact order.
//!
//! **Cost.** Classification, both induced sorts and the reduced-string
//! construction are single passes. Naming compares each LMS substring
//! with its predecessor in sorted order; every substring's end is
//! precomputed in the classification pass, so naming is linear in the
//! total LMS-substring length, which is `O(n)` (adjacent substrings share
//! one position). The recursion runs on at most `n / 2` symbols, so the
//! whole construction is `O(n)` time. It allocates nothing: every level
//! carves its buckets, LMS lists and reduced string out of the `work`
//! and `types` slices the caller passes ([`work_len`] words suffice for
//! all levels together).

/// Marks a suffix-array slot no suffix has been induced into yet.
const EMPTY: u32 = u32::MAX;

/// `u32` words of `work` that [`sais`] needs for a text of `n` symbols
/// over `alphabet` symbols, all recursion levels included.
///
/// A level over `m` symbols and `k` buckets with `c ≤ m / 2` LMS
/// suffixes carves `2k + 3c` words it keeps across the recursive call
/// and `2(m / 2 + 1)` it is done with before recursing on `c` symbols
/// over at most `c` buckets; by induction that is at most `2k + 5m + 2`.
pub(crate) fn work_len(n: usize, alphabet: usize) -> usize {
    2 * alphabet + 5 * n + 2
}

/// Writes the suffix array of `text` (symbols in `0..alphabet`) into
/// `sa`. The virtual sentinel (smaller than every symbol) is handled
/// implicitly and never stored. `types` needs `2 * text.len()` slots and
/// `work` [`work_len`] words; neither needs initialising.
pub(crate) fn sais(
    text: &[u32],
    alphabet: usize,
    sa: &mut [u32],
    types: &mut [bool],
    work: &mut [u32],
) {
    let n = text.len();
    debug_assert_eq!(sa.len(), n);
    if n <= 1 {
        sa.fill(0);
        return;
    }

    // Suffix types: true = S-type (suffix < next suffix), false = L-type.
    // The sentinel is the smallest symbol, so suffix n-1 is L-type.
    let (is_s, types) = types.split_at_mut(n);
    is_s[n - 1] = false;
    let mut lms_count = 0;
    for i in (0..n - 1).rev() {
        is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
        lms_count += usize::from(!is_s[i] && is_s[i + 1]);
    }
    let is_s = &*is_s;
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    let (sizes, work) = work.split_at_mut(alphabet);
    let (cursor, work) = work.split_at_mut(alphabet);
    sizes.fill(0);
    for &c in text {
        sizes[c as usize] += 1;
    }

    // Kept across the recursion: the LMS suffixes in sorted order (the
    // child's suffix array, while it runs), their positions in text order
    // and the reduced string of their names.
    let (sorted, work) = work.split_at_mut(lms_count);
    let (lms_pos, work) = work.split_at_mut(lms_count);
    let (reduced, work) = work.split_at_mut(lms_count);

    // First pass: seed the LMS suffixes at their bucket tails in text
    // order (approximate) and record where each LMS substring ends — one
    // past the next LMS position, or `n` for the last. LMS positions are
    // at least two apart, so `p / 2` indexes them without collisions.
    let half = n / 2 + 1;
    sa.fill(EMPTY);
    bucket_tails(sizes, cursor);
    {
        let end_at = &mut work[..half];
        let mut end = n;
        for i in (1..n).rev().filter(|&i| is_lms(i)) {
            let c = text[i] as usize;
            cursor[c] -= 1;
            sa[cursor[c] as usize] = i as u32;
            end_at[i / 2] = end as u32;
            end = i + 1;
        }
    }
    induce(text, is_s, sizes, cursor, sa);
    if lms_count <= 1 {
        return; // Zero or one seed is trivially in exact order.
    }

    for (slot, &p) in sorted.iter_mut().zip(sa.iter().filter(|&&p| is_lms(p as usize))) {
        *slot = p;
    }

    // Name the LMS substrings in induced order: equal substrings (same
    // length, same symbols, both ends included) share a name.
    let names = {
        let (end_at, rest) = work.split_at_mut(half);
        let name_at = &mut rest[..half];
        let lms_equal = |a: usize, b: usize| {
            let (ea, eb) = (end_at[a / 2] as usize, end_at[b / 2] as usize);
            ea - a == eb - b && text[a..ea] == text[b..eb]
        };
        let mut names = 0u32;
        let mut prev = sorted[0] as usize;
        name_at[prev / 2] = 0;
        for &p in &sorted[1..] {
            let p = p as usize;
            names += u32::from(!lms_equal(prev, p));
            name_at[p / 2] = names;
            prev = p;
        }
        for (j, i) in (1..n).filter(|&i| is_lms(i)).enumerate() {
            lms_pos[j] = i as u32;
            reduced[j] = name_at[i / 2];
        }
        names as usize + 1
    };

    // All names distinct: the induced order is already exact. Otherwise
    // sort the reduced string's suffixes and map them back to positions.
    if names < lms_count {
        sais(reduced, names, sorted, types, work);
        for slot in sorted.iter_mut() {
            *slot = lms_pos[*slot as usize];
        }
    }

    // Second pass: seed in exact order (descending, so each bucket's
    // tail fills back to front) and induce the final array.
    sa.fill(EMPTY);
    bucket_tails(sizes, cursor);
    for &p in sorted.iter().rev() {
        let c = text[p as usize] as usize;
        cursor[c] -= 1;
        sa[cursor[c] as usize] = p;
    }
    induce(text, is_s, sizes, cursor, sa);
}

/// Sets `cursor[c]` to the first slot of bucket `c`.
fn bucket_heads(sizes: &[u32], cursor: &mut [u32]) {
    let mut sum = 0;
    for (head, &size) in cursor.iter_mut().zip(sizes) {
        *head = sum;
        sum += size;
    }
}

/// Sets `cursor[c]` to one past the last slot of bucket `c`.
fn bucket_tails(sizes: &[u32], cursor: &mut [u32]) {
    let mut sum = 0;
    for (tail, &size) in cursor.iter_mut().zip(sizes) {
        sum += size;
        *tail = sum;
    }
}

/// Induced sort from the LMS seeds already in `sa` (every other slot
/// [`EMPTY`]): L-type suffixes fill their buckets from the heads in a
/// left-to-right scan, then S-type suffixes from the tails in a
/// right-to-left scan, overwriting the seeds.
fn induce(text: &[u32], is_s: &[bool], sizes: &[u32], cursor: &mut [u32], sa: &mut [u32]) {
    let n = text.len();
    bucket_heads(sizes, cursor);
    // The sentinel's predecessor, suffix n-1, is L-type and leads its
    // bucket.
    let c = text[n - 1] as usize;
    sa[cursor[c] as usize] = (n - 1) as u32;
    cursor[c] += 1;
    // `sa[i] - 1` wraps past `n` for both suffix 0 (no predecessor) and
    // EMPTY, so one comparison filters both.
    for i in 0..n {
        let q = sa[i].wrapping_sub(1) as usize;
        if q < n && !is_s[q] {
            let c = text[q] as usize;
            sa[cursor[c] as usize] = q as u32;
            cursor[c] += 1;
        }
    }
    bucket_tails(sizes, cursor);
    for i in (0..n).rev() {
        let q = sa[i].wrapping_sub(1) as usize;
        if q < n && is_s[q] {
            let c = text[q] as usize;
            cursor[c] -= 1;
            sa[cursor[c] as usize] = q as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::suffix_array::{SuffixArray, SuffixBackend};
    use crate::Token;

    fn check<T: Token>(s: &[T]) {
        let sais = SuffixArray::build_with(s, SuffixBackend::Sais);
        let doubling = SuffixArray::build_with(s, SuffixBackend::Doubling);
        assert_eq!(sais.sa(), doubling.sa(), "SA-IS vs doubling on {s:?}");
    }

    #[test]
    fn classic_strings() {
        check(b"banana".as_slice());
        check(b"mississippi".as_slice());
        check(b"aabcbcbaa".as_slice());
        check(b"abracadabra".as_slice());
        check(b"yabbadabbado".as_slice());
    }

    #[test]
    fn degenerate_inputs() {
        check::<u8>(&[]);
        check(b"a".as_slice());
        check(b"aa".as_slice());
        check(b"ab".as_slice());
        check(b"ba".as_slice());
        check(&[5u8; 100]);
    }

    #[test]
    fn periodic_and_fibonacci() {
        let periodic: Vec<u32> = (0..300).map(|i| i % 7).collect();
        check(&periodic);
        // Fibonacci word: a classic SA stress input.
        let mut fib = vec![0u8];
        let mut prev = vec![1u8];
        for _ in 0..12 {
            let next = [fib.clone(), prev.clone()].concat();
            prev = fib;
            fib = next;
        }
        check(&fib);
    }

    #[test]
    fn large_alphabet() {
        let s: Vec<u64> = vec![u64::MAX, 0, 1 << 40, u64::MAX, 0, 1 << 40, 7];
        check(&s);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// SA-IS and prefix doubling agree on arbitrary inputs.
            #[test]
            fn agrees_with_doubling_small_alphabet(
                s in proptest::collection::vec(0u8..4, 0..300)
            ) {
                check(&s);
            }

            #[test]
            fn agrees_with_doubling_large_alphabet(
                s in proptest::collection::vec(any::<u16>(), 0..200)
            ) {
                check(&s);
            }
        }
    }
}
