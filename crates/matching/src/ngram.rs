//! The representative-n-gram row matcher (Algorithm 1 of the paper).
//!
//! For each source row and each n-gram size `n0 ≤ n ≤ nmax`, the n-gram with
//! the highest Rscore (rare in both columns, equations 1–2) is the row's
//! *representative* of that size; every target row containing at least one
//! representative becomes a candidate joinable pair. An inverted n-gram
//! index over the target column makes the lookup O(1) per representative.
//!
//! # Execution plan
//!
//! The scan runs in two phases:
//!
//! 1. **Read-only state, built once.** Both columns normalized into
//!    [`ColumnArena`]s, [`ColumnStats`] for the two IRF sides and the
//!    target [`NGramIndex`] are read through a [`GramCorpus`]: at
//!    repository scale the caller's shared corpus, so a column referenced
//!    by k pairs derives its normalization, stats, and index exactly once;
//!    otherwise a call-local corpus that builds each artifact once for this
//!    call. [`NGramMatcher::try_find_candidates`] is the matcher's one
//!    path, and [`NGramMatcher::try_candidate_value_pairs`] only
//!    materializes its output as strings.
//! 2. **Row scan.** Source rows are scanned in order, with per-size
//!    representative selection *fused into one pass per row*: the row's
//!    char boundaries are computed once and every size slides a window
//!    over them, instead of re-extracting (and re-allocating) the n-gram
//!    list per size as the retained oracle does. The scan is serial:
//!    parallelism lives one level up, across column pairs (the batch
//!    runner's worker loop), where the work per task is large enough to
//!    pay for a thread.
//!
//! Determinism: candidate dedup keys are `(source_row, target_row)`, so the
//! oracle's global seen-set only ever rejects repeats *within* a source row
//! — per-row scans are independent. The scan records, per row, the newly
//! matched target rows grouped by the size that found them; the final
//! assembly emits them in the oracle's size-major order (sizes outer, rows
//! inner). The output is therefore bit-identical to
//! [`crate::reference::find_candidates_reference`] — same pairs, same order
//! — which `crates/join/tests/proptest_join.rs` enforces differentially.

use serde::{Deserialize, Serialize};
use std::fmt;
use tjoin_datasets::{row_id, ColumnPair};
use tjoin_text::{
    rscore, BudgetExceeded, BudgetToken, ColumnArena, ColumnStats, CorpusFailure, FxHashSet,
    GramCorpus, NGramIndex, NormalizeOptions,
};

/// Why a fallible matcher call ([`NGramMatcher::try_find_candidates`])
/// aborted instead of producing candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchAbort {
    /// The pair's [`BudgetToken`] tripped (deadline or admission cap).
    Budget(BudgetExceeded),
    /// A corpus artifact this pair depends on failed to build (a contained
    /// panic or capacity overflow, sticky in a shared corpus's cache).
    Corpus(CorpusFailure),
}

impl fmt::Display for MatchAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchAbort::Budget(cause) => write!(f, "matching aborted: {cause}"),
            MatchAbort::Corpus(failure) => write!(f, "matching aborted: {failure}"),
        }
    }
}

impl From<BudgetExceeded> for MatchAbort {
    fn from(cause: BudgetExceeded) -> Self {
        MatchAbort::Budget(cause)
    }
}

impl From<CorpusFailure> for MatchAbort {
    fn from(failure: CorpusFailure) -> Self {
        MatchAbort::Corpus(failure)
    }
}

/// Configuration of the [`NGramMatcher`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NGramMatcherConfig {
    /// Smallest representative n-gram size (the paper tunes `n0 = 4`).
    pub n_min: usize,
    /// Largest representative n-gram size (the paper uses 20, "roughly up to
    /// half the length of the input rows").
    pub n_max: usize,
    /// Normalization applied to both columns before matching.
    pub normalize: NormalizeOptions,
}

impl Default for NGramMatcherConfig {
    fn default() -> Self {
        Self {
            n_min: 4,
            n_max: 20,
            normalize: NormalizeOptions::default(),
        }
    }
}

/// One source row's scan result: for each n-gram size whose representative
/// matched something new, the newly matched target rows in index-lookup
/// order. Sizes appear in increasing order.
type RowHits = Vec<(usize, Vec<u32>)>;

/// The cooperative budget check between the matcher's build steps (`Ok`
/// without a budget).
fn check(budget: Option<&BudgetToken>) -> Result<(), MatchAbort> {
    budget.map_or(Ok(()), |token| token.check().map_err(MatchAbort::from))
}

/// The representative-n-gram row matcher.
#[derive(Debug, Clone)]
pub struct NGramMatcher {
    config: NGramMatcherConfig,
}

impl NGramMatcher {
    /// Creates a matcher with the given configuration.
    pub fn new(config: NGramMatcherConfig) -> Self {
        assert!(config.n_min >= 1, "n_min must be at least 1");
        assert!(config.n_min <= config.n_max, "n_min must not exceed n_max");
        Self { config }
    }

    /// Creates a matcher with the paper's default parameters (`n0 = 4`,
    /// `nmax = 20`).
    pub fn with_defaults() -> Self {
        Self::new(NGramMatcherConfig::default())
    }

    /// Runs Algorithm 1: finds candidate joinable row pairs between the
    /// source and target columns of `pair` — the matcher's one scan path.
    ///
    /// The scan's read-only artifacts (both normalized columns, the two
    /// [`ColumnStats`] IRF sides and the target [`NGramIndex`]) are always
    /// read through a [`GramCorpus`]: `corpus` when one is given, so a
    /// column referenced by k pairs derives them once per repository, else
    /// a call-local corpus dropped on return. Corpus artifacts are pure
    /// functions of the same inputs, so the output is bit-identical either
    /// way — and to [`crate::reference::find_candidates_reference`]. A
    /// corpus must normalize exactly as this matcher's configuration does.
    ///
    /// Aborts cleanly with a [`MatchAbort`] instead of panicking or hanging
    /// when the pair's `budget` trips or a corpus artifact build fails (a
    /// contained panic, or a column past the arena's `u32` capacity; on a
    /// shared corpus the failure is sticky). The budget is checked between
    /// the build steps (each normalization pass, the stats builds and the
    /// index build) and before every scanned row, so a tripped deadline
    /// stops the pair within one build step or row.
    pub fn try_find_candidates(
        &self,
        pair: &ColumnPair,
        corpus: Option<&GramCorpus>,
        budget: Option<&BudgetToken>,
    ) -> Result<Vec<(u32, u32)>, MatchAbort> {
        pair.assert_row_indexable();
        check(budget)?;
        let local;
        let corpus = match corpus {
            Some(corpus) => {
                assert_eq!(
                    corpus.options(),
                    &self.config.normalize,
                    "corpus normalization differs from the matcher configuration"
                );
                corpus
            }
            None => {
                local = GramCorpus::new(self.config.normalize);
                &local
            }
        };
        let (n_min, n_max) = (self.config.n_min, self.config.n_max);
        let source = corpus.try_column_on(&pair.source)?;
        check(budget)?;
        let target = corpus.try_column_on(&pair.target)?;
        check(budget)?;
        let source_stats = source.try_stats(n_min, n_max)?;
        let target_stats = target.try_stats(n_min, n_max)?;
        check(budget)?;
        let target_index = target.try_index(n_min, n_max)?;
        check(budget)?;
        self.scan_columns(source.normalized(), &source_stats, &target_stats, &target_index, budget)
    }

    /// The row scan over the corpus's normalized source arena and prebuilt
    /// gram artifacts. Rows borrow cell
    /// slices out of the column; nothing is cloned into the scan.
    fn scan_columns(
        &self,
        source: &ColumnArena,
        source_stats: &ColumnStats,
        target_stats: &ColumnStats,
        target_index: &NGramIndex,
        budget: Option<&BudgetToken>,
    ) -> Result<Vec<(u32, u32)>, MatchAbort> {
        // The budget (deadline only; caps are charged at admission) is
        // checked before every row, aborting the whole scan on a trip.
        let mut per_row: Vec<RowHits> = Vec::with_capacity(source.len());
        for row in 0..source.len() {
            check(budget)?;
            per_row.push(self.scan_row(source.cell(row), source_stats, target_stats, target_index));
        }

        // Assembly in the oracle's size-major order. Each row's hits are
        // sorted by size, so one cursor per row makes this linear in the
        // output.
        let mut cursors = vec![0usize; per_row.len()];
        let mut out: Vec<(u32, u32)> = Vec::new();
        for n in self.config.n_min..=self.config.n_max {
            for (row_idx, hits) in per_row.iter().enumerate() {
                let cursor = &mut cursors[row_idx];
                if *cursor < hits.len() && hits[*cursor].0 == n {
                    let source_row = row_id(row_idx);
                    for &target_row in &hits[*cursor].1 {
                        out.push((source_row, target_row));
                    }
                    *cursor += 1;
                }
            }
        }
        Ok(out)
    }

    /// Scans one normalized source row: selects the representative n-gram of
    /// every size in one fused pass (char boundaries computed once, each
    /// size slides a window over them) and expands the representatives
    /// against the target index, deduplicating target rows across sizes.
    fn scan_row(
        &self,
        row: &str,
        source_stats: &ColumnStats,
        target_stats: &ColumnStats,
        target_index: &NGramIndex,
    ) -> RowHits {
        let boundaries: Vec<usize> = row
            .char_indices()
            .map(|(b, _)| b)
            .chain(std::iter::once(row.len()))
            .collect();
        let chars = boundaries.len() - 1;
        let mut hits: RowHits = Vec::new();
        if chars < self.config.n_min {
            // Row shorter than the smallest size: no n-gram of any
            // requested size exists (the oracle's empty-grams `continue`).
            return hits;
        }
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for n in self.config.n_min..=self.config.n_max.min(chars) {
            // argmax Rscore over the row's n-grams of this size; ties keep
            // the first gram, exactly as the oracle's `s >= score` guard.
            let mut best: Option<(&str, f64)> = None;
            for i in 0..=chars - n {
                let g = &row[boundaries[i]..boundaries[i + n]];
                let score = rscore(g, source_stats, target_stats);
                if score <= 0.0 {
                    continue;
                }
                match best {
                    Some((_, s)) if s >= score => {}
                    _ => best = Some((g, score)),
                }
            }
            let Some((rep, _)) = best else { continue };
            let matches = target_index.rows_containing(rep);
            let new: Vec<u32> = matches.iter().copied().filter(|&t| seen.insert(t)).collect();
            if !new.is_empty() {
                hits.push((n, new));
            }
        }
        hits
    }

    /// [`Self::try_find_candidates`] materialized as (source value, target
    /// value) strings — the input format of the synthesis engine. Values are
    /// the *original* (un-normalized) cell contents; the engine applies its
    /// own normalization.
    pub fn try_candidate_value_pairs(
        &self,
        pair: &ColumnPair,
        corpus: Option<&GramCorpus>,
        budget: Option<&BudgetToken>,
    ) -> Result<Vec<(String, String)>, MatchAbort> {
        Ok(Self::materialize_pairs(pair, self.try_find_candidates(pair, corpus, budget)?))
    }

    fn materialize_pairs(pair: &ColumnPair, matches: Vec<(u32, u32)>) -> Vec<(String, String)> {
        // Invariant is local (audited): `as usize` here widens `u32` row
        // ids (lossless on every supported target), and the ids came from
        // scanning these very columns, whose lengths already passed
        // `checked_row_count` at index construction.
        matches
            .into_iter()
            .map(|(s, t)| {
                (
                    pair.source[s as usize].clone(),
                    pair.target[t as usize].clone(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::find_candidates_reference;

    /// The matcher through a call-local corpus, without a budget.
    fn candidates(matcher: &NGramMatcher, pair: &ColumnPair) -> Vec<(u32, u32)> {
        matcher.try_find_candidates(pair, None, None).unwrap()
    }

    /// The matcher through `corpus`, without a budget.
    fn corpus_candidates(
        matcher: &NGramMatcher,
        pair: &ColumnPair,
        corpus: &GramCorpus,
    ) -> Vec<(u32, u32)> {
        matcher.try_find_candidates(pair, Some(corpus), None).unwrap()
    }

    fn staff_pair() -> ColumnPair {
        ColumnPair::aligned(
            "staff",
            vec![
                "Rafiei, Davood".into(),
                "Nascimento, Mario A".into(),
                "Gingrich, Douglas M".into(),
                "Prus-Czarnecki, Andrzej".into(),
                "Bowling, Michael".into(),
                "Gosgnach, Simon".into(),
            ],
            vec![
                "D Rafiei".into(),
                "M A Nascimento".into(),
                "D Gingrich".into(),
                "A Prus-czarnecki".into(),
                "M Bowling".into(),
                "S Gosgnach".into(),
            ],
        )
    }

    #[test]
    fn finds_the_true_pairs_on_the_paper_example() {
        let matcher = NGramMatcher::with_defaults();
        let found = candidates(&matcher, &staff_pair());
        // Every golden pair must be among the candidates (high recall).
        for i in 0..6u32 {
            assert!(
                found.contains(&(i, i)),
                "golden pair {i} missing from {found:?}"
            );
        }
    }

    #[test]
    fn representative_ngram_limits_false_matches() {
        // A shared suffix ("@ualberta.ca") must not match every row to every
        // other row: distinctive user names dominate the Rscore.
        let pair = ColumnPair::aligned(
            "emails",
            vec![
                "Rafiei, Davood".into(),
                "Bowling, Michael".into(),
                "Gosgnach, Simon".into(),
            ],
            vec![
                "davood.rafiei@ualberta.ca".into(),
                "michael.bowling@ualberta.ca".into(),
                "simon.gosgnach@ualberta.ca".into(),
            ],
        );
        let matcher = NGramMatcher::with_defaults();
        let found = candidates(&matcher, &pair);
        let false_matches = found.iter().filter(|(s, t)| s != t).count();
        assert_eq!(false_matches, 0, "false matches: {found:?}");
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn no_candidates_for_disjoint_columns() {
        let pair = ColumnPair::aligned(
            "disjoint",
            vec!["aaaaaa".into(), "bbbbbb".into()],
            vec!["cccccc".into(), "dddddd".into()],
        );
        let matcher = NGramMatcher::with_defaults();
        assert!(candidates(&matcher, &pair).is_empty());
    }

    #[test]
    fn value_pairs_use_original_strings() {
        let matcher = NGramMatcher::with_defaults();
        let values = matcher.try_candidate_value_pairs(&staff_pair(), None, None).unwrap();
        assert!(values
            .iter()
            .any(|(s, t)| s == "Rafiei, Davood" && t == "D Rafiei"));
    }

    #[test]
    fn duplicate_pairs_not_reported_twice() {
        let matcher = NGramMatcher::with_defaults();
        let found = candidates(&matcher, &staff_pair());
        let set: std::collections::HashSet<(u32, u32)> = found.iter().copied().collect();
        assert_eq!(set.len(), found.len());
    }

    #[test]
    #[should_panic(expected = "n_min")]
    fn invalid_config_rejected() {
        let _ = NGramMatcher::new(NGramMatcherConfig {
            n_min: 0,
            ..NGramMatcherConfig::default()
        });
    }

    #[test]
    fn every_path_bit_identical_to_reference() {
        // The one scan, through a call-local corpus and a shared one (cold,
        // then from cache), against the oracle. The synthetic pair's duplicated and empty
        // values exercise the dedup and short-row paths.
        let mut source: Vec<String> = Vec::new();
        let mut target: Vec<String> = Vec::new();
        for i in 0..37 {
            source.push(format!("lastname{i:02}, firstname{i:02}"));
            target.push(format!("f{i:02} lastname{i:02}"));
        }
        source.push(String::new());
        target.push("orphan value".into());
        source.push("ab".into()); // shorter than n_min = 4
        target.push("f00 lastname00".into()); // duplicate target value
        let synthetic = ColumnPair::aligned("par", source, target);

        let config = NGramMatcherConfig::default();
        let matcher = NGramMatcher::new(config.clone());
        for pair in [staff_pair(), synthetic] {
            let oracle = find_candidates_reference(&config, &pair);
            assert!(!oracle.is_empty());
            assert_eq!(candidates(&matcher, &pair), oracle, "call-local corpus diverged on {}", pair.name);
            let corpus = GramCorpus::new(config.normalize);
            for round in 0..3 {
                assert_eq!(
                    corpus_candidates(&matcher, &pair, &corpus),
                    oracle,
                    "corpus path diverged on {} in round {round}",
                    pair.name
                );
            }
            // Both columns interned once, served from cache afterwards.
            let stats = corpus.stats();
            assert_eq!(stats.columns_interned, 2);
            assert_eq!(stats.column_hits, 4);
            assert_eq!(stats.stats_built, 2);
            assert_eq!(stats.indexes_built, 1);
        }
    }

    #[test]
    fn empty_source_column_yields_nothing() {
        let pair = ColumnPair {
            name: "empty-source".into(),
            source: vec![],
            target: vec!["abcd".into(), "efgh".into()],
            golden: vec![],
        };
        assert!(candidates(&NGramMatcher::with_defaults(), &pair).is_empty());
    }

    #[test]
    fn empty_target_column_yields_nothing() {
        let pair = ColumnPair {
            name: "empty-target".into(),
            source: vec!["abcd".into(), "efgh".into()],
            target: vec![],
            golden: vec![],
        };
        assert!(candidates(&NGramMatcher::with_defaults(), &pair).is_empty());
    }

    #[test]
    fn rows_shorter_than_n_min_are_skipped_not_crashed() {
        let pair = ColumnPair::aligned(
            "short",
            vec!["ab".into(), "c".into(), String::new(), "abcdefgh".into()],
            vec!["ab".into(), "c".into(), "x".into(), "abcdefgh".into()],
        );
        let config = NGramMatcherConfig::default(); // n_min = 4
        let oracle = find_candidates_reference(&config, &pair);
        let found = candidates(&NGramMatcher::new(config.clone()), &pair);
        assert_eq!(found, oracle);
        // Only the one long row can produce a representative.
        assert!(found.iter().all(|&(s, _)| s == 3));
        assert!(!found.is_empty());
    }

    #[test]
    fn column_shared_by_many_pairs_interned_once() {
        // One master source column probed against three target columns: the
        // shared column must be normalized/interned exactly once, and every
        // pair's output must equal its call-local run.
        let shared_source: Vec<String> = vec![
            "Rafiei, Davood".into(),
            "Bowling, Michael".into(),
            "Gosgnach, Simon".into(),
        ];
        let targets: Vec<Vec<String>> = vec![
            vec!["D Rafiei".into(), "M Bowling".into(), "S Gosgnach".into()],
            vec!["d.rafiei".into(), "m.bowling".into(), "s.gosgnach".into()],
            vec!["RAFIEI D".into(), "BOWLING M".into(), "GOSGNACH S".into()],
        ];
        let config = NGramMatcherConfig::default();
        let matcher = NGramMatcher::new(config.clone());
        let corpus = GramCorpus::new(config.normalize);
        for (i, target) in targets.iter().enumerate() {
            let pair = ColumnPair::aligned(format!("shared-{i}"), shared_source.clone(), target.clone());
            assert_eq!(
                corpus_candidates(&matcher, &pair, &corpus),
                candidates(&matcher, &pair),
                "pair {i} diverged through the corpus"
            );
        }
        let stats = corpus.stats();
        // 1 shared source + 3 distinct targets; the source was served from
        // cache on the 2nd and 3rd pair (2 normalizations saved), and its
        // ColumnStats was built once and hit twice.
        assert_eq!(stats.columns_interned, 4);
        assert_eq!(stats.column_hits, 2);
        assert_eq!(stats.stats_built, 4);
        assert_eq!(stats.stats_hits, 2);
        assert_eq!(stats.indexes_built, 3);
        assert_eq!(stats.index_hits, 0);
    }

    #[test]
    fn stats_built_once_per_interned_column_across_repeated_scans() {
        // Satellite regression (PR 4 caveat): repeated batch scans through
        // a corpus must NOT rebuild stats strings per call. The corpus
        // counters prove each interned column derives its ColumnStats
        // exactly once, with every later scan served from cache.
        let pair = staff_pair();
        let config = NGramMatcherConfig::default();
        let matcher = NGramMatcher::new(config.clone());
        let corpus = GramCorpus::new(config.normalize);
        let first = corpus_candidates(&matcher, &pair, &corpus);
        for round in 0..5 {
            assert_eq!(corpus_candidates(&matcher, &pair, &corpus), first, "round {round}");
        }
        let stats = corpus.stats();
        // 2 distinct columns → exactly 2 stats builds and 1 target index
        // build, no matter how many scans ran.
        assert_eq!(stats.columns_interned, 2);
        assert_eq!(stats.stats_built, 2);
        assert_eq!(stats.indexes_built, 1);
        // 6 scans × (2 stats + 1 index) requests = 12 stats lookups and 6
        // index lookups; all but the first builds were cache hits.
        assert_eq!(stats.stats_hits, 10);
        assert_eq!(stats.index_hits, 5);
        assert_eq!(stats.column_hits, 10);
    }

    #[test]
    #[should_panic(expected = "corpus normalization differs")]
    fn corpus_with_mismatched_normalization_rejected() {
        let corpus = GramCorpus::new(NormalizeOptions::none());
        let matcher = NGramMatcher::with_defaults(); // default normalize
        let _ = corpus_candidates(&matcher, &staff_pair(), &corpus);
    }

    #[test]
    fn all_duplicate_target_values_fan_out() {
        // Every target row holds the same value: a matching source row must
        // pair with all of them, in posting-list (row-id) order.
        let pair = ColumnPair {
            name: "dup-targets".into(),
            source: vec!["alpha beta".into()],
            target: vec!["alpha".into(), "alpha".into(), "alpha".into()],
            golden: vec![(0, 0), (0, 1), (0, 2)],
        };
        let config = NGramMatcherConfig::default();
        let oracle = find_candidates_reference(&config, &pair);
        let found = candidates(&NGramMatcher::new(config.clone()), &pair);
        assert_eq!(found, oracle);
        let targets: Vec<u32> = found.iter().map(|&(_, t)| t).collect();
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn live_budget_is_bit_identical_to_unbudgeted() {
        let pair = staff_pair();
        let budget = tjoin_text::RunBudget::default().token();
        let matcher = NGramMatcher::with_defaults();
        assert_eq!(
            matcher.try_find_candidates(&pair, None, Some(&budget)).unwrap(),
            candidates(&matcher, &pair)
        );
    }

    #[test]
    fn tripped_budget_aborts_cleanly() {
        let pair = staff_pair();
        let budget = tjoin_text::RunBudget::default()
            .with_deadline(std::time::Duration::ZERO)
            .token();
        let matcher = NGramMatcher::with_defaults();
        assert_eq!(
            matcher.try_find_candidates(&pair, None, Some(&budget)),
            Err(MatchAbort::Budget(tjoin_text::BudgetExceeded::Deadline))
        );
        // The corpus path aborts identically, before interning anything.
        let corpus = GramCorpus::new(NormalizeOptions::default());
        assert_eq!(
            matcher.try_find_candidates(&pair, Some(&corpus), Some(&budget)),
            Err(MatchAbort::Budget(tjoin_text::BudgetExceeded::Deadline))
        );
        assert_eq!(corpus.column_count(), 0);
    }
}
