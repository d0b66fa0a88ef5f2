//! The retained serial row-matching oracle.
//!
//! This is the original matcher loop, kept verbatim as the differential
//! oracle for the fused row scan in [`crate::ngram`]:
//! size-major iteration (n-gram sizes outer, source rows inner), per-size
//! re-extraction of the row's n-grams, and a global seen-set dedup in
//! discovery order. It is also the one place the matcher still normalizes
//! into owned `Vec<String>` columns. `NGramMatcher::try_find_candidates`
//! must produce bit-identical, identically ordered [`RowMatch`] output;
//! `crates/join/tests/proptest_join.rs` holds it to that.
//!
//! The oracle deliberately re-derives every per-call artifact — it never
//! reads a shared `GramCorpus` — so it also anchors the corpus-reuse
//! differentials: the matcher over interned columns must reproduce this
//! function's output exactly (`crates/join/tests/proptest_batch.rs`).

use crate::ngram::{NGramMatcherConfig, RowMatch};
use tjoin_datasets::{row_id, ColumnPair};
use tjoin_text::{char_ngrams, normalize_for_matching, rscore, ColumnStats, FxHashSet, NGramIndex};

/// Runs Algorithm 1 with the naive size-major loop (the retained oracle).
pub fn find_candidates_reference(config: &NGramMatcherConfig, pair: &ColumnPair) -> Vec<RowMatch> {
    pair.assert_row_indexable();
    let source: Vec<String> = pair
        .source
        .iter()
        .map(|v| normalize_for_matching(v, &config.normalize))
        .collect();
    let target: Vec<String> = pair
        .target
        .iter()
        .map(|v| normalize_for_matching(v, &config.normalize))
        .collect();

    // Column statistics for IRF on both sides and the inverted index on
    // the target column for the containment lookup.
    let source_stats = ColumnStats::build(&source, config.n_min, config.n_max);
    let target_stats = ColumnStats::build(&target, config.n_min, config.n_max);
    let target_index = NGramIndex::build(&target, config.n_min, config.n_max);

    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut out: Vec<RowMatch> = Vec::new();

    for n in config.n_min..=config.n_max {
        for (row_idx, row) in source.iter().enumerate() {
            let grams = char_ngrams(row, n);
            if grams.is_empty() {
                continue;
            }
            // argmax Rscore over the row's n-grams of this size.
            let mut best: Option<(&str, f64)> = None;
            for g in grams {
                let score = rscore(g, &source_stats, &target_stats);
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
            if let Some(cap) = config.max_matches_per_representative {
                if matches.len() > cap {
                    continue;
                }
            }
            for &t in matches {
                if seen.insert((row_id(row_idx), t)) {
                    out.push(RowMatch {
                        source_row: row_id(row_idx),
                        target_row: t,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram::NGramMatcher;

    #[test]
    fn oracle_matches_production_matcher_on_the_paper_example() {
        let pair = ColumnPair::aligned(
            "staff",
            vec!["Rafiei, Davood".into(), "Bowling, Michael".into()],
            vec!["D Rafiei".into(), "M Bowling".into()],
        );
        let config = NGramMatcherConfig::default();
        let reference = find_candidates_reference(&config, &pair);
        let production = NGramMatcher::new(config)
            .try_find_candidates(&pair, None, None)
            .unwrap();
        assert_eq!(reference, production);
        assert!(!reference.is_empty());
    }
}
