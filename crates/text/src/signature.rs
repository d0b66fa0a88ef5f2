//! Cheap per-column discovery signatures.
//!
//! The discovery layer (crates/discovery) must decide *which* column pairs
//! are worth the expensive match→synthesize→join pipeline without running
//! it. This module provides the per-column summary that decision reads:
//! the **anchor set**, the sorted, deduplicated [`fingerprint64`]s of every
//! gram of size exactly `n_min` in the normalized column.
//!
//! The n-gram matcher only ever pairs rows through a shared gram with size
//! in `[n_min, n_max]`, and every shared gram of length `n ≥ n_min`
//! contains a shared length-`n_min` substring — so **two columns with
//! disjoint anchor sets cannot produce a single candidate row match**.
//! Exact anchor-set intersection is therefore a sound pruning predicate
//! (recall 1.0 by construction), and it needs nothing of the column but
//! its cells and `n_min`.
//!
//! The anchor set is a pure function of the normalized cell contents and
//! `n_min`, so signatures are bit-identical regardless of hash-map
//! iteration order or thread count. Signatures are cached in the
//! [`crate::corpus::GramCorpus`] next to stats/index (see
//! `CorpusColumn::try_signature`), so a resident corpus serves warm
//! discovery without recomputing anything.

use crate::arena::CellText;
use crate::fingerprint::fingerprint64;
use crate::ngram::for_each_ngram_in_sizes;

#[cfg(debug_assertions)]
use crate::fxhash::FxHashMap;

/// Debug-build shadow map asserting that distinct gram texts never share a
/// fingerprint — the one collision check of every fingerprint-keyed gram
/// build: [`ColumnStats`](crate::scoring::ColumnStats),
/// [`NGramIndex`](crate::index::NGramIndex) and [`ColumnSignature`].
/// Release builds compile it to nothing.
#[derive(Debug, Default)]
pub struct CollisionGuard {
    #[cfg(debug_assertions)]
    shadow: FxHashMap<u64, String>,
}

impl CollisionGuard {
    /// Creates an empty guard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `gram` fingerprints to `key`; panics (debug builds
    /// only) if a *different* gram already claimed the same key.
    #[inline]
    pub fn check(&mut self, key: u64, gram: &str) {
        #[cfg(debug_assertions)]
        {
            let prev = self.shadow.entry(key).or_insert_with(|| gram.to_owned());
            debug_assert_eq!(
                prev, gram,
                "gram fingerprint collision: {prev:?} vs {gram:?} both hash to {key:#x}"
            );
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (key, gram);
        }
    }
}

/// The per-column discovery signature: the exact size-`n_min` anchor
/// fingerprint set (see the module docs for why it is a sound prune).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSignature {
    /// Sorted, deduplicated fingerprints of every gram of size exactly
    /// `anchor_size` in the normalized column.
    anchors: Vec<u64>,
    /// The anchor gram size (the matcher's `n_min`).
    anchor_size: usize,
    /// Row count of the signed column.
    row_count: usize,
}

impl ColumnSignature {
    /// Builds the signature of a normalized `column` with anchors of size
    /// `n_min`.
    pub fn build<C: CellText + ?Sized>(column: &C, n_min: usize) -> Self {
        let mut guard = CollisionGuard::new();
        let mut anchors: Vec<u64> = Vec::new();
        for cell in column.cells() {
            // Gram sizes are in characters, so the size filter must come
            // from the extraction range, not the gram's byte length.
            for_each_ngram_in_sizes(cell, n_min, n_min, &mut |g| {
                let key = fingerprint64(g);
                guard.check(key, g);
                anchors.push(key);
            });
        }
        anchors.sort_unstable();
        anchors.dedup();
        // Resident signatures are charged by `len` (`approximate_bytes`),
        // so drop the capacity the duplicate grams took.
        anchors.shrink_to_fit();
        Self { anchors, anchor_size: n_min, row_count: column.cell_count() }
    }

    /// The sorted anchor fingerprint set (size-`n_min` grams).
    pub fn anchors(&self) -> &[u64] {
        &self.anchors
    }

    /// The anchor gram size this signature was built with.
    pub fn anchor_size(&self) -> usize {
        self.anchor_size
    }

    /// Row count of the signed column.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Exact size of the anchor intersection with `other` (linear merge
    /// over the two sorted sets). This is the *pruning* predicate: zero
    /// shared anchors proves zero candidate row matches.
    pub fn shared_anchors(&self, other: &Self) -> usize {
        debug_assert_eq!(
            self.anchor_size, other.anchor_size,
            "anchor sets of different gram sizes are not comparable"
        );
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
        while i < self.anchors.len() && j < other.anchors.len() {
            match self.anchors[i].cmp(&other.anchors[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Estimated memory footprint: the fixed struct plus the anchor vector
    /// — summed into the corpus's per-column byte accounting so resident
    /// signatures participate in eviction budgets.
    pub fn approximate_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.anchors.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::NormalizeOptions;

    fn sig(rows: &[&str], n_min: usize) -> ColumnSignature {
        ColumnSignature::build(rows, n_min)
    }

    #[test]
    fn identical_columns_sign_identically() {
        let a = sig(&["davood rafiei", "mario nascimento"], 4);
        let b = sig(&["davood rafiei", "mario nascimento"], 4);
        assert_eq!(a, b);
        assert_eq!(a.shared_anchors(&b), a.anchors().len());
        assert!(a.anchors().windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert_eq!(a.row_count(), 2);
    }

    #[test]
    fn storage_representation_does_not_change_the_signature() {
        let rows: &[&str] = &["alpha beta", "gamma delta epsilon"];
        let vec_sig = ColumnSignature::build(rows, 4);
        let arena = crate::arena::ColumnArena::try_normalized(rows, &NormalizeOptions::default())
            .expect("tiny column fits the arena");
        let arena_sig = ColumnSignature::build(&arena, 4);
        // Default normalization lowercases/trims; these rows are already
        // normal form, so both representations carry identical cells.
        assert_eq!(vec_sig, arena_sig);
    }

    #[test]
    fn disjoint_columns_share_nothing() {
        let a = sig(&["aaaaaa"], 4);
        let b = sig(&["bbbbbb"], 4);
        assert_eq!(a.shared_anchors(&b), 0);
    }

    #[test]
    fn empty_columns_have_no_anchors() {
        let empty = sig(&[], 4);
        let other = sig(&["abcdef"], 4);
        assert_eq!(empty.anchors().len(), 0);
        assert_eq!(empty.shared_anchors(&other), 0);
        assert_eq!(empty.shared_anchors(&empty), 0);
    }

    #[test]
    fn shared_substring_yields_shared_anchor() {
        // Any pipeline-joinable pair shares a gram of size >= n_min, hence
        // a size-n_min anchor — the recall-1.0 argument in miniature.
        let a = sig(&["prefix SHARED1234 suffix"], 4);
        let b = sig(&["SHARED1234"], 4);
        assert!(a.shared_anchors(&b) > 0);
    }

    #[test]
    fn rows_shorter_than_anchor_size_contribute_no_anchors() {
        let s = sig(&["abc", "ab"], 4);
        assert_eq!(s.anchors().len(), 0);
    }

    #[test]
    fn approximate_bytes_tracks_anchor_count() {
        let small = sig(&["abcd"], 4);
        let large = sig(&["abcdefghijklmnopqrstuvwxyz"], 4);
        assert!(large.approximate_bytes() > small.approximate_bytes());
        assert!(small.approximate_bytes() >= std::mem::size_of::<ColumnSignature>());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn forced_collision_trips_the_guard() {
        // Regression for the signature collision check: two *different*
        // gram texts claiming one fingerprint must panic in debug builds.
        let mut guard = CollisionGuard::new();
        guard.check(42, "abcd");
        guard.check(42, "abcd"); // same text: fine
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            guard.check(42, "efgh");
        }));
        assert!(result.is_err(), "distinct texts on one key must panic");
    }
}
