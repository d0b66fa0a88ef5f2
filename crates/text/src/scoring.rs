//! Inverse Row Frequency (IRF) and the representative score (Rscore).
//!
//! Section 4.2.1 of the paper, equations (1) and (2):
//!
//! * `IRF(t, c) = 1 / (number of rows in column c that contain t)`
//! * `Rscore(t) = IRF(t, SC) · IRF(t, TC)`
//!
//! An n-gram with a high Rscore is rare in both columns and therefore a good
//! *representative* of the entity described by a row — common prefixes, stop
//! words, and shared domain suffixes (the paper's "@ualberta.ca" example) get
//! low scores and are not used to pair rows.

use crate::arena::CellText;
use crate::fingerprint::fingerprint64;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ngram::for_each_ngram_in_sizes;
use crate::signature::CollisionGuard;
use serde::{Deserialize, Serialize};

/// Per-column n-gram statistics: for each n-gram (of any size in the indexed
/// range), the number of rows of the column that contain it at least once.
///
/// Frequencies are keyed by the gram's 64-bit [`fingerprint64`] instead of an
/// owned `String`: a stats build allocates no gram text at all — grams stream
/// out of the column (arena or `Vec<String>` alike) as borrowed slices and
/// only their fingerprints are stored. A [`CollisionGuard`] asserts (in
/// debug builds) that the fingerprints never collide on the indexed corpus.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of rows in the column.
    pub row_count: usize,
    /// gram fingerprint → number of rows containing the gram.
    row_frequency: FxHashMap<u64, u32>,
}

impl ColumnStats {
    /// Builds statistics for `rows`, counting every distinct n-gram with size
    /// in `[n_min, n_max]` once per row in which it occurs.
    pub fn build<S: AsRef<str> + Sync>(rows: &[S], n_min: usize, n_max: usize) -> Self {
        Self::build_on(rows, n_min, n_max)
    }

    /// [`Self::build`] over any [`CellText`] column — the arena-backed hot
    /// path; behaviour is identical for identical cell contents.
    pub fn build_on<C: CellText + ?Sized>(column: &C, n_min: usize, n_max: usize) -> Self {
        let mut row_frequency: FxHashMap<u64, u32> = FxHashMap::default();
        let mut guard = CollisionGuard::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for row in 0..column.cell_count() {
            let row = column.cell(row);
            seen.clear();
            for_each_ngram_in_sizes(row, n_min, n_max, &mut |g| {
                let key = fingerprint64(g);
                guard.check(key, g);
                if seen.insert(key) {
                    *row_frequency.entry(key).or_insert(0) += 1;
                }
            });
        }
        Self {
            row_count: column.cell_count(),
            row_frequency,
        }
    }

    /// Number of rows containing `gram` (0 when unseen).
    pub fn row_frequency(&self, gram: &str) -> u32 {
        self.row_frequency
            .get(&fingerprint64(gram))
            .copied()
            .unwrap_or(0)
    }

    /// Estimated memory footprint of the stats map: per entry, the 8-byte
    /// gram fingerprint, the 4-byte row count, and the same fixed hash-map
    /// overhead estimate [`crate::index::NGramIndex::approximate_bytes`]
    /// uses — the serving layer's per-column byte accounting sums this with
    /// the arena and index footprints.
    pub fn approximate_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.row_frequency.len()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>() + 48)
    }

    /// IRF of `gram` in this column (equation 1). Zero when the gram never
    /// occurs (so that unseen grams never look representative).
    pub fn irf(&self, gram: &str) -> f64 {
        irf(self.row_frequency(gram) as usize)
    }
}

/// IRF of a gram given the number of rows containing it (equation 1).
pub fn irf(rows_containing: usize) -> f64 {
    if rows_containing == 0 {
        0.0
    } else {
        1.0 / rows_containing as f64
    }
}

/// Representative score of `gram` across a source and a target column
/// (equation 2): the product of the two IRFs. Zero when the gram is absent
/// from either column, so only grams appearing on both sides can pair rows.
#[inline]
pub fn rscore(gram: &str, source: &ColumnStats, target: &ColumnStats) -> f64 {
    source.irf(gram) * target.irf(gram)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irf_definition() {
        assert_eq!(irf(0), 0.0);
        assert_eq!(irf(1), 1.0);
        assert_eq!(irf(4), 0.25);
    }

    #[test]
    fn column_stats_row_frequency_counts_rows_not_occurrences() {
        // "aaaa" contains the 2-gram "aa" three times but in one row only.
        let stats = ColumnStats::build(&["aaaa", "aab"], 2, 2);
        assert_eq!(stats.row_count, 2);
        assert_eq!(stats.row_frequency("aa"), 2);
        assert_eq!(stats.row_frequency("ab"), 1);
        assert_eq!(stats.row_frequency("zz"), 0);
    }

    #[test]
    fn column_stats_multi_size() {
        let stats = ColumnStats::build(&["abc"], 2, 3);
        assert_eq!(stats.row_frequency("ab"), 1);
        assert_eq!(stats.row_frequency("abc"), 1);
        assert_eq!(stats.row_frequency("a"), 0); // size 1 not indexed
        assert!(stats.row_frequency.len() >= 3);
    }

    #[test]
    fn irf_in_column() {
        let stats = ColumnStats::build(&["ab", "ab", "cd", "ab"], 2, 2);
        assert!((stats.irf("ab") - 1.0 / 3.0).abs() < 1e-12);
        assert!((stats.irf("cd") - 1.0).abs() < 1e-12);
        assert_eq!(stats.irf("zz"), 0.0);
    }

    #[test]
    fn rscore_is_product_and_zero_when_one_sided() {
        let src = ColumnStats::build(&["rafiei davood", "nascimento mario"], 4, 4);
        let tgt = ColumnStats::build(&["drafiei", "nascimento"], 4, 4);
        // "afie" appears in 1 source row and 1 target row -> 1.0
        assert!((rscore("afie", &src, &tgt) - 1.0).abs() < 1e-12);
        // "мари" absent everywhere -> 0
        assert_eq!(rscore("мари", &src, &tgt), 0.0);
        // a gram only in the source -> 0
        assert_eq!(rscore("davo", &src, &tgt), 0.0);
    }

    #[test]
    fn common_suffix_scores_low() {
        // Every email shares "@ua" - its rscore must be far below a rare gram.
        let src = ColumnStats::build(&["rafiei, davood", "bowling, michael"], 3, 3);
        let tgt = ColumnStats::build(&["drafiei@ua.ca", "mbowling@ua.ca"], 3, 3);
        let shared = rscore("@ua", &src, &tgt); // absent in source -> 0 anyway
        let rare = rscore("afi", &src, &tgt);
        assert!(rare > shared);
        // And within the target column alone, IRF of the shared suffix is lower.
        assert!(tgt.irf("@ua") < tgt.irf("owl"));
    }

    #[test]
    fn approximate_bytes_tracks_distinct_grams() {
        let small = ColumnStats::build(&["ab"], 2, 2);
        let large = ColumnStats::build(&["abcdefgh", "ijklmnop"], 2, 4);
        assert!(small.approximate_bytes() >= std::mem::size_of::<ColumnStats>());
        assert!(large.approximate_bytes() > small.approximate_bytes());
        // Identical content builds account identically (the serving layer's
        // eviction bookkeeping relies on this being deterministic).
        let again = ColumnStats::build(&["abcdefgh", "ijklmnop"], 2, 4);
        assert_eq!(large.approximate_bytes(), again.approximate_bytes());
    }

    #[test]
    fn empty_column() {
        let stats = ColumnStats::build(&Vec::<String>::new(), 2, 4);
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.irf("ab"), 0.0);
        assert_eq!(stats.row_frequency.len(), 0);
    }
}
