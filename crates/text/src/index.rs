//! Inverted n-gram index.
//!
//! Section 4.2.1: "we build an inverted index for n-grams that appear in
//! either the source or the target columns. For a fast access, the inverted
//! index is organized as a hash with every n-gram of size n0 ≤ n ≤ nmax as a
//! key and the row ids where the n-gram appears as a data value."
//!
//! Posting lists are keyed by a 64-bit fingerprint of the gram rather than
//! an owned `String`: index construction stores one `u64` per distinct gram
//! instead of allocating each gram's text, and lookups hash the query gram
//! without materializing it. A debug-build [`CollisionGuard`] verifies the
//! fingerprints never collide on the indexed corpus (at 64 bits, a corpus
//! would need billions of distinct grams before collisions become likely).

use crate::arena::{checked_row_count, ArenaError, CellText};
use crate::fingerprint::fingerprint64;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ngram::for_each_ngram_in_sizes;
use crate::signature::CollisionGuard;
use serde::{Deserialize, Serialize};

/// An inverted index from character n-grams (sizes `n_min..=n_max`) to the
/// ids of the rows containing them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NGramIndex {
    postings: FxHashMap<u64, Vec<u32>>,
}

impl NGramIndex {
    /// Builds the index over `rows`; row ids are the positions in the slice.
    ///
    /// Each row id appears at most once in a posting list even when the
    /// n-gram occurs several times in that row, and posting lists are sorted.
    ///
    /// Panics when the column exceeds the `u32` row-id space; use
    /// [`Self::try_build_on`] for the typed-error form.
    pub fn build<S: AsRef<str> + Sync>(rows: &[S], n_min: usize, n_max: usize) -> Self {
        match Self::try_build_on(rows, n_min, n_max) {
            Ok(index) => index,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::build`] over any [`CellText`] column (the arena-backed hot
    /// path), rejecting columns whose row count cannot be addressed by `u32`
    /// row ids with a typed [`ArenaError`] instead of silently wrapping the
    /// id cast.
    pub fn try_build_on<C: CellText + ?Sized>(
        column: &C,
        n_min: usize,
        n_max: usize,
    ) -> Result<Self, ArenaError> {
        assert!(n_min >= 1, "n_min must be at least 1");
        assert!(n_min <= n_max, "n_min must not exceed n_max");
        // Guard the whole id space up front: after this check, every row
        // index below `rows_u32` fits losslessly in the posting entries.
        let rows_u32 = checked_row_count(column.cell_count())?;
        let mut postings: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut guard = CollisionGuard::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for row_id in 0..rows_u32 {
            let row = column.cell(row_id as usize);
            seen.clear();
            for_each_ngram_in_sizes(row, n_min, n_max, &mut |g| {
                let key = fingerprint64(g);
                guard.check(key, g);
                if seen.insert(key) {
                    postings.entry(key).or_default().push(row_id);
                }
            });
        }
        // Rows are visited in ascending order and each contributes a given
        // key at most once, so the lists are already sorted and unique; the
        // pass below is a cheap invariant backstop.
        for list in postings.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        Ok(Self { postings })
    }

    /// The sorted ids of rows containing `gram`; empty when unseen.
    pub fn rows_containing(&self, gram: &str) -> &[u32] {
        self.postings
            .get(&fingerprint64(gram))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Ids of rows containing *any* of the given grams (deduplicated, sorted).
    pub fn rows_containing_any<'a, I>(&self, grams: I) -> Vec<u32>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut out: Vec<u32> = Vec::new();
        for g in grams {
            out.extend_from_slice(self.rows_containing(g));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Estimated memory footprint in bytes (fingerprint keys + posting
    /// lists), used by scalability reporting.
    pub fn approximate_bytes(&self) -> usize {
        self.postings
            .values()
            .map(|v| std::mem::size_of::<u64>() + v.len() * std::mem::size_of::<u32>() + 48)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let rows = vec!["drafiei@ualberta.ca", "mario.nascimento@ualberta.ca"];
        let idx = NGramIndex::build(&rows, 4, 8);
        assert_eq!(idx.rows_containing("rafi"), &[0]);
        assert_eq!(idx.rows_containing("ualberta"), &[0, 1]);
        assert_eq!(idx.rows_containing("zzzz"), &[] as &[u32]);
    }

    #[test]
    fn row_ids_unique_even_with_repeats() {
        let rows = vec!["abab"];
        let idx = NGramIndex::build(&rows, 2, 2);
        assert_eq!(idx.rows_containing("ab"), &[0]);
    }

    #[test]
    fn rows_containing_any_dedups() {
        let rows = vec!["abcd", "cdef", "ghij"];
        let idx = NGramIndex::build(&rows, 2, 2);
        let hits = idx.rows_containing_any(["ab", "cd", "ef"]);
        assert_eq!(hits, vec![0, 1]);
        assert!(idx.rows_containing_any(["zz"]).is_empty());
    }

    #[test]
    fn short_rows_skip_large_sizes() {
        let rows = vec!["ab"];
        let idx = NGramIndex::build(&rows, 1, 10);
        assert_eq!(idx.rows_containing("ab"), &[0]);
        assert_eq!(idx.rows_containing("a"), &[0]);
        assert_eq!(idx.postings.len(), 3); // "a", "b", "ab"
    }

    #[test]
    #[should_panic(expected = "n_min must be at least 1")]
    fn zero_n_min_panics() {
        let _ = NGramIndex::build(&["ab"], 0, 2);
    }

    #[test]
    #[should_panic(expected = "n_min must not exceed n_max")]
    fn inverted_range_panics() {
        let _ = NGramIndex::build(&["ab"], 3, 2);
    }

    #[test]
    fn over_large_column_rejected_with_typed_error_not_wrapped() {
        // Regression: posting construction used `row_id as u32`, which on a
        // >u32::MAX-row column would wrap and corrupt postings. The mock
        // column claims more rows than the id space; the constructor must
        // reject it before reading a single cell.
        struct Huge;
        impl CellText for Huge {
            fn cell_count(&self) -> usize {
                u32::MAX as usize + 2
            }
            fn cell(&self, _row: usize) -> &str {
                unreachable!("over-large column must be rejected before any cell read")
            }
        }
        match NGramIndex::try_build_on(&Huge, 2, 4) {
            Err(ArenaError::RowCountOverflow { rows }) => {
                assert_eq!(rows, u32::MAX as usize + 2);
            }
            other => panic!("expected RowCountOverflow, got {other:?}"),
        }
    }

    #[test]
    fn arena_build_matches_slice_build() {
        use crate::arena::ColumnArena;
        let rows = vec!["drafiei@ualberta.ca".to_string(), "mario@ualberta.ca".to_string()];
        let arena = ColumnArena::from_cells(rows.as_slice());
        let from_slice = NGramIndex::build(&rows, 3, 6);
        let from_arena = NGramIndex::try_build_on(&arena, 3, 6).unwrap();
        assert_eq!(from_slice, from_arena);
        for g in ["raf", "ualber", "mario", "@ua"] {
            assert_eq!(from_slice.rows_containing(g), from_arena.rows_containing(g), "gram {g:?}");
        }
    }

    #[test]
    fn memory_estimate_positive() {
        let idx = NGramIndex::build(&["abcdef"], 2, 3);
        assert!(idx.approximate_bytes() > 0);
    }

    #[test]
    fn fingerprints_distinguish_length_boundaries() {
        // Grams of different sizes over the same prefix must not collide:
        // the fingerprint mixes in the gram's byte length.
        let rows = vec!["aaaa"];
        let idx = NGramIndex::build(&rows, 1, 4);
        assert_eq!(idx.postings.len(), 4); // "a", "aa", "aaa", "aaaa"
        for g in ["a", "aa", "aaa", "aaaa"] {
            assert_eq!(idx.rows_containing(g), &[0], "gram {g:?}");
        }
    }

    #[test]
    fn large_corpus_has_no_fingerprint_collisions() {
        // The debug-build collision guard asserts on collision during build; this
        // exercises it over a larger distinct-gram population.
        let rows: Vec<String> = (0..500).map(|i| format!("value-{i:04}-suffix")).collect();
        let idx = NGramIndex::build(&rows, 3, 9);
        assert!(idx.postings.len() > 3_000);
        assert_eq!(idx.rows_containing("0042"), &[42]);
    }
}
