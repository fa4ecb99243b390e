//! Fixed-universe bitsets used as the set type throughout the crate.
//!
//! All submodular-maximization algorithms in this crate work over a ground
//! set `U = {0, 1, ..., n-1}`. A [`BitSet`] is a subset of such a universe,
//! backed by a `Box<[u64]>` of words. The universe size is fixed at
//! construction.
//!
//! # Cross-universe operations panic
//!
//! Every binary operation (`union_with`, `intersect_with`,
//! `difference_with`, `is_subset`, the fused popcount kernels, the
//! symmetric-difference iterator) **panics** when the two operands come
//! from different universes — in release builds too, not just debug. An
//! earlier version only `debug_assert`ed and silently truncated the
//! word-wise zip to the shorter operand in release builds, which turns a
//! caller bug into a wrong answer; a universe mismatch is always a logic
//! error, so it is now pinned as a hard contract (element-level
//! out-of-range handling, where a policy other than panicking is wanted,
//! lives in the consumers — see `BestCostEngine::truncate_to_universe`).
//!
//! # Word-parallel kernels
//!
//! The hot paths of the MQO pipeline at large universes (10k+ candidate
//! sets span 157+ words) are set *comparisons*, not mutations: the rebase
//! decision of the incremental `bestCost` oracle measures `|A △ B|`
//! against a threshold, and greedy argmax rounds compare candidate sets
//! against a shared base. The fused kernels
//! ([`BitSet::symmetric_difference_len`] and
//! [`BitSet::symmetric_difference_len_capped`]) combine the word-wise
//! operation with the popcount in one pass — no intermediate set, no
//! allocation — and [`BitSet::is_subset`] and the
//! symmetric-difference iterator process 4-word blocks so sparse diffs
//! skip equal regions at memory-bandwidth speed.

use std::fmt;

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// Words per block for the blocked kernels: 4 × u64 = one 32-byte lane
/// pair, small enough to stay in registers, large enough that skipping an
/// all-equal block amortizes the loop overhead on multi-hundred-word sets.
const BLOCK_WORDS: usize = 4;

/// A subset of a fixed universe `{0, ..., n-1}`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    /// Number of elements in the universe (not the set).
    universe: usize,
    words: Box<[u64]>,
}

impl BitSet {
    /// Creates the empty subset of a universe with `universe` elements.
    pub fn empty(universe: usize) -> Self {
        let n_words = universe.div_ceil(WORD_BITS).max(1);
        BitSet {
            universe,
            words: vec![0u64; n_words].into_boxed_slice(),
        }
    }

    /// Creates the full subset `{0, ..., universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Creates a set from an iterator of element indices.
    pub fn from_iter<I: IntoIterator<Item = usize>>(universe: usize, iter: I) -> Self {
        let mut s = Self::empty(universe);
        for e in iter {
            s.insert(e);
        }
        s
    }

    /// Zeroes any bits beyond the universe in the last word.
    fn clear_tail(&mut self) {
        let used = self.universe % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.universe == 0 {
            for w in self.words.iter_mut() {
                *w = 0;
            }
        }
    }

    /// The universe size this set lives in.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of elements currently in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Tests membership of `e`.
    #[inline]
    pub fn contains(&self, e: usize) -> bool {
        debug_assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        self.words[e / WORD_BITS] >> (e % WORD_BITS) & 1 == 1
    }

    /// Inserts `e`; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, e: usize) -> bool {
        debug_assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        let w = &mut self.words[e / WORD_BITS];
        let mask = 1u64 << (e % WORD_BITS);
        let added = *w & mask == 0;
        *w |= mask;
        added
    }

    /// Removes `e`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, e: usize) -> bool {
        debug_assert!(
            e < self.universe,
            "element {e} outside universe {}",
            self.universe
        );
        let w = &mut self.words[e / WORD_BITS];
        let mask = 1u64 << (e % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Returns a copy of `self` with `e` inserted.
    pub fn with(&self, e: usize) -> Self {
        let mut s = self.clone();
        s.insert(e);
        s
    }

    /// Returns a copy of `self` with `e` removed.
    pub fn without(&self, e: usize) -> Self {
        let mut s = self.clone();
        s.remove(e);
        s
    }

    /// Panics (in every build profile) unless `other` lives in the same
    /// universe; see the module docs for the cross-universe contract.
    #[inline]
    #[track_caller]
    fn check_same_universe(&self, other: &Self) {
        assert_eq!(
            self.universe, other.universe,
            "BitSet universe mismatch: {} vs {}",
            self.universe, other.universe
        );
    }

    /// Whether `self ⊆ other`. Blocked: 4-word chunks are tested with one
    /// OR-combined violation mask each, so the common all-contained prefix
    /// is scanned without per-word branching and the first violating block
    /// exits early.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_same_universe(other);
        let (a_blocks, a_tail) = as_blocks(&self.words);
        let (b_blocks, b_tail) = as_blocks(&other.words);
        for (a, b) in a_blocks.zip(b_blocks) {
            let violation = (a[0] & !b[0]) | (a[1] & !b[1]) | (a[2] & !b[2]) | (a[3] & !b[3]);
            if violation != 0 {
                return false;
            }
        }
        a_tail.iter().zip(b_tail).all(|(a, b)| a & !b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &Self) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// Makes `self` a copy of `other` without allocating when the two sets
    /// already share a universe (the common case: round buffers reused
    /// across greedy iterations). Falls back to a fresh clone on a
    /// universe change.
    pub fn copy_from(&mut self, other: &Self) {
        if self.universe == other.universe {
            self.words.copy_from_slice(&other.words);
        } else {
            *self = other.clone();
        }
    }

    /// `|self △ other|` without materializing either difference: fused
    /// XOR + popcount per word.
    pub fn symmetric_difference_len(&self, other: &Self) -> usize {
        self.check_same_universe(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// [`Self::symmetric_difference_len`] with an early exit: exact while
    /// the count is `<= cap`, and otherwise some value `> cap` (the scan
    /// stops at the first 4-word block that pushes the count past the
    /// cap). This is the rebase-decision kernel of the incremental
    /// `bestCost` oracle: "is this candidate within `threshold` elements
    /// of the committed base?" needs no exact distance for far candidates.
    pub fn symmetric_difference_len_capped(&self, other: &Self, cap: usize) -> usize {
        self.check_same_universe(other);
        let (a_blocks, a_tail) = as_blocks(&self.words);
        let (b_blocks, b_tail) = as_blocks(&other.words);
        let mut count = 0usize;
        for (a, b) in a_blocks.zip(b_blocks) {
            count += (a[0] ^ b[0]).count_ones() as usize
                + (a[1] ^ b[1]).count_ones() as usize
                + (a[2] ^ b[2]).count_ones() as usize
                + (a[3] ^ b[3]).count_ones() as usize;
            if count > cap {
                return count;
            }
        }
        for (a, b) in a_tail.iter().zip(b_tail) {
            count += (a ^ b).count_ones() as usize;
            if count > cap {
                return count;
            }
        }
        count
    }

    /// Returns `self ∪ other`.
    pub fn union(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other`.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other`.
    pub fn difference(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns the complement `U \ self`.
    pub fn complement(&self) -> Self {
        let mut s = self.clone();
        for w in s.words.iter_mut() {
            *w = !*w;
        }
        s.clear_tail();
        s
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over the symmetric difference `self △ other` in increasing
    /// order, XOR-ing word pairs on the fly — no intermediate set and no
    /// allocation, unlike `a.difference(b)` / `b.difference(a)` chains.
    /// This is the hot diff primitive of the incremental `bestCost` path.
    pub fn symmetric_difference_iter<'a>(&'a self, other: &'a BitSet) -> SymmetricDifference<'a> {
        self.check_same_universe(other);
        SymmetricDifference {
            a: &self.words,
            b: &other.words,
            word_idx: 0,
            current: match (self.words.first(), other.words.first()) {
                (Some(&x), Some(&y)) => x ^ y,
                _ => 0,
            },
        }
    }
}

/// Splits a word slice into an iterator of full 4-word blocks plus the
/// tail, for the blocked kernels.
#[inline]
fn as_blocks(words: &[u64]) -> (std::slice::ChunksExact<'_, u64>, &[u64]) {
    let blocks = words.chunks_exact(BLOCK_WORDS);
    let tail = blocks.remainder();
    (blocks, tail)
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over `a △ b` (elements in exactly one of two same-universe
/// sets) in increasing order; see [`BitSet::symmetric_difference_iter`].
pub struct SymmetricDifference<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SymmetricDifference<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            // Skip all-equal 4-word blocks with a single OR-combined XOR
            // mask each; on the sparse diffs the incremental oracle feeds
            // this iterator, most of the set is identical and this refill
            // is the whole cost.
            while self.word_idx + BLOCK_WORDS <= self.a.len() {
                let a = &self.a[self.word_idx..self.word_idx + BLOCK_WORDS];
                let b = &self.b[self.word_idx..self.word_idx + BLOCK_WORDS];
                if (a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) | (a[3] ^ b[3]) != 0 {
                    break;
                }
                self.word_idx += BLOCK_WORDS;
            }
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] ^ self.b[self.word_idx];
        }
    }
}

/// Enumerates all `2^n` subsets of a universe of size `n` (for exhaustive
/// search in tests; panics if `n > 25` to avoid accidental blow-ups).
pub fn all_subsets(universe: usize) -> impl Iterator<Item = BitSet> {
    assert!(
        universe <= 25,
        "exhaustive subset enumeration limited to universes of size <= 25"
    );
    (0u64..(1u64 << universe)).map(move |mask| {
        let mut s = BitSet::empty(universe);
        for e in 0..universe {
            if mask >> e & 1 == 1 {
                s.insert(e);
            }
        }
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = BitSet::full(10);
        assert_eq!(f.len(), 10);
        assert_eq!(f.complement(), e);
        assert_eq!(e.complement(), f);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::empty(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn with_without_do_not_mutate() {
        let s = BitSet::from_iter(8, [1, 3]);
        let t = s.with(5);
        assert!(!s.contains(5));
        assert!(t.contains(5));
        let u = t.without(1);
        assert!(t.contains(1));
        assert!(!u.contains(1));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(70, [0, 1, 65]);
        let b = BitSet::from_iter(70, [1, 2, 65, 69]);
        assert_eq!(a.union(&b), BitSet::from_iter(70, [0, 1, 2, 65, 69]));
        assert_eq!(a.intersection(&b), BitSet::from_iter(70, [1, 65]));
        assert_eq!(a.difference(&b), BitSet::from_iter(70, [0]));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn iteration_order() {
        let s = BitSet::from_iter(200, [199, 0, 64, 63, 128]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn complement_tail_bits_are_clear() {
        // Universe 67 leaves 61 unused bits in the second word; complement
        // must not set them, or len() would overcount.
        let s = BitSet::from_iter(67, [0, 66]);
        let c = s.complement();
        assert_eq!(c.len(), 65);
        assert!(!c.contains(0));
        assert!(!c.contains(66));
        assert!(c.contains(1));
    }

    #[test]
    fn zero_universe() {
        let s = BitSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(BitSet::full(0), s);
    }

    #[test]
    fn all_subsets_enumerates_powerset() {
        let subsets: Vec<BitSet> = all_subsets(4).collect();
        assert_eq!(subsets.len(), 16);
        // All distinct.
        for (i, a) in subsets.iter().enumerate() {
            for b in subsets.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    /// Reference symmetric difference via the allocating set algebra.
    fn sym_diff_reference(a: &BitSet, b: &BitSet) -> Vec<usize> {
        let mut out: Vec<usize> = a.difference(b).iter().collect();
        out.extend(b.difference(a).iter());
        out.sort_unstable();
        out
    }

    #[test]
    fn symmetric_difference_iter_empty() {
        let a = BitSet::empty(70);
        let b = BitSet::empty(70);
        assert_eq!(a.symmetric_difference_iter(&b).count(), 0);
        // Equal non-empty sets also yield nothing.
        let c = BitSet::from_iter(70, [3, 64, 69]);
        assert_eq!(c.symmetric_difference_iter(&c.clone()).count(), 0);
        // Zero-universe sets have one (all-zero) backing word.
        let z = BitSet::empty(0);
        assert_eq!(z.symmetric_difference_iter(&BitSet::empty(0)).count(), 0);
    }

    #[test]
    fn symmetric_difference_iter_dense() {
        // Full vs empty: every element differs, in increasing order.
        let full = BitSet::full(130);
        let empty = BitSet::empty(130);
        let v: Vec<usize> = full.symmetric_difference_iter(&empty).collect();
        assert_eq!(v, (0..130).collect::<Vec<_>>());
        // Dense interleaved sets: evens vs odds differ everywhere.
        let evens = BitSet::from_iter(130, (0..130).step_by(2));
        let odds = BitSet::from_iter(130, (1..130).step_by(2));
        let v: Vec<usize> = evens.symmetric_difference_iter(&odds).collect();
        assert_eq!(v, (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn symmetric_difference_iter_word_boundaries() {
        // Differences placed on and around the 64-bit word seams, including
        // the last element of a non-multiple-of-64 universe.
        let a = BitSet::from_iter(193, [0, 63, 64, 127, 128, 192]);
        let b = BitSet::from_iter(193, [0, 64, 128, 191]);
        let v: Vec<usize> = a.symmetric_difference_iter(&b).collect();
        assert_eq!(v, vec![63, 127, 191, 192]);
        // Exact word-multiple universe.
        let c = BitSet::from_iter(128, [0, 127]);
        let d = BitSet::from_iter(128, [127]);
        let v: Vec<usize> = c.symmetric_difference_iter(&d).collect();
        assert_eq!(v, vec![0]);
    }

    use crate::prng::{seeded_sweep, Prng};

    /// Universes the kernel sweeps run at: word seams (63/64/65), an exact
    /// block boundary (4 × 64 = 256 ± 1), and a multi-hundred-word size in
    /// the regime the blocked kernels target.
    const SWEEP_UNIVERSES: [usize; 8] = [1, 63, 64, 65, 128, 255, 257, 10_240];

    /// Samples a random subset with density `p`, biased toward sparse and
    /// dense extremes so the blocked skip paths (all-equal / all-different
    /// chunks) are actually exercised.
    fn random_set(rng: &mut Prng, universe: usize) -> BitSet {
        let p = match rng.gen_range(0usize..4) {
            0 => 0.02,
            1 => 0.5,
            2 => 0.98,
            _ => rng.gen_range(0.0..1.0),
        };
        BitSet::from_iter(universe, (0..universe).filter(|_| rng.gen_bool(p)))
    }

    /// A near-copy of `base` with a few flipped elements — the shape the
    /// rebase-decision kernels see (candidate vs committed base).
    fn perturbed(rng: &mut Prng, base: &BitSet) -> BitSet {
        let universe = base.universe();
        let mut s = base.clone();
        let flips = rng.gen_range(0usize..8.min(universe + 1));
        for _ in 0..flips {
            let e = rng.gen_range(0..universe.max(1)).min(universe - 1);
            if s.contains(e) {
                s.remove(e);
            } else {
                s.insert(e);
            }
        }
        s
    }

    #[test]
    fn symmetric_difference_iter_matches_reference_sweep() {
        seeded_sweep("sym_diff_iter_vs_reference", 0x00B1_75E7_D1FF, 60, |rng| {
            let universe = SWEEP_UNIVERSES[rng.gen_range(0..SWEEP_UNIVERSES.len())];
            let a = random_set(rng, universe);
            let b = if rng.gen_bool(0.5) {
                random_set(rng, universe)
            } else {
                perturbed(rng, &a)
            };
            let got: Vec<usize> = a.symmetric_difference_iter(&b).collect();
            assert_eq!(got, sym_diff_reference(&a, &b), "universe {universe}");
        });
    }

    #[test]
    fn fused_len_kernels_match_materialized_ops_sweep() {
        seeded_sweep("fused_len_vs_materialized", 0xF05E_D1E5, 60, |rng| {
            let universe = SWEEP_UNIVERSES[rng.gen_range(0..SWEEP_UNIVERSES.len())];
            let a = random_set(rng, universe);
            let b = random_set(rng, universe);
            let sym = a.difference(&b).union(&b.difference(&a)).len();
            assert_eq!(a.symmetric_difference_len(&b), sym);
        });
    }

    #[test]
    fn capped_symmetric_difference_len_sweep() {
        seeded_sweep("sym_diff_len_capped", 0x00CA_99ED, 60, |rng| {
            let universe = SWEEP_UNIVERSES[rng.gen_range(0..SWEEP_UNIVERSES.len())];
            let a = random_set(rng, universe);
            let b = if rng.gen_bool(0.5) {
                random_set(rng, universe)
            } else {
                perturbed(rng, &a)
            };
            let exact = a.symmetric_difference_len(&b);
            for cap in [0usize, 1, 4, 8, exact, exact + 1, usize::MAX] {
                let got = a.symmetric_difference_len_capped(&b, cap);
                if exact <= cap {
                    assert_eq!(got, exact, "cap {cap} >= exact {exact} must be exact");
                } else {
                    assert!(got > cap, "cap {cap} < exact {exact}: got {got}");
                }
            }
        });
    }

    #[test]
    fn blocked_is_subset_matches_reference_sweep() {
        seeded_sweep("is_subset_blocked_vs_reference", 0x5_0B5E7, 60, |rng| {
            let universe = SWEEP_UNIVERSES[rng.gen_range(0..SWEEP_UNIVERSES.len())];
            let b = random_set(rng, universe);
            // Mix genuine subsets (intersections of b) with arbitrary sets
            // so both outcomes occur at every universe size.
            let a = if rng.gen_bool(0.5) {
                random_set(rng, universe).intersection(&b)
            } else {
                random_set(rng, universe)
            };
            let reference = a.iter().all(|e| b.contains(e));
            assert_eq!(a.is_subset(&b), reference);
        });
    }

    #[test]
    fn copy_from_reuses_and_reallocates() {
        let src = BitSet::from_iter(300, [0, 64, 255, 299]);
        let mut dst = BitSet::full(300);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // Universe change falls back to a clone.
        let mut other = BitSet::full(10);
        other.copy_from(&src);
        assert_eq!(other, src);
        assert_eq!(other.universe(), 300);
    }

    #[test]
    fn exact_word_boundary_universe() {
        let f = BitSet::full(64);
        assert_eq!(f.len(), 64);
        let c = f.complement();
        assert!(c.is_empty());
    }

    // Cross-universe operations must panic in every build profile — the
    // module-level contract pinned by satellite work in this PR.

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_union_panics() {
        BitSet::empty(64).union_with(&BitSet::empty(65));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_intersect_panics() {
        BitSet::empty(65).intersect_with(&BitSet::empty(64));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_difference_panics() {
        BitSet::empty(128).difference_with(&BitSet::empty(64));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_is_subset_panics() {
        let _ = BitSet::empty(64).is_subset(&BitSet::empty(128));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_fused_len_panics() {
        let _ = BitSet::empty(64).symmetric_difference_len(&BitSet::empty(128));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_sym_diff_iter_panics() {
        let a = BitSet::empty(64);
        let b = BitSet::empty(128);
        let _ = a.symmetric_difference_iter(&b).count();
    }
}
