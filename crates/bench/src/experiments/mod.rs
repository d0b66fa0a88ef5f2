//! Experiment implementations, one module per paper table / figure.
//!
//! Each module exposes a `run(scale) -> Report` (or a small set of reports)
//! used by the corresponding binary in `src/bin/`, so the logic is unit
//! testable without spawning processes.

pub mod figures;
pub mod sampling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use tjoin_datasets::ColumnPair;
use tjoin_matching::{golden_value_pairs, MatchingMode, NGramMatcher};

/// Materializes the candidate (source value, target value) pairs of a column
/// pair under the given row-matching mode — the input to synthesis.
pub fn candidate_value_pairs(pair: &ColumnPair, mode: MatchingMode) -> Vec<(String, String)> {
    match mode {
        MatchingMode::NGram => NGramMatcher::with_defaults()
            .try_candidate_value_pairs(pair, None, None)
            .expect("unbudgeted per-call matching cannot abort"),
        MatchingMode::Golden => golden_value_pairs(pair),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_pairs_both_modes() {
        let pair = ColumnPair::aligned(
            "t",
            vec!["Rafiei, Davood".into(), "Bowling, Michael".into()],
            vec!["D Rafiei".into(), "M Bowling".into()],
        );
        let golden = candidate_value_pairs(&pair, MatchingMode::Golden);
        assert_eq!(golden.len(), 2);
        let ngram = candidate_value_pairs(&pair, MatchingMode::NGram);
        assert!(!ngram.is_empty());
    }
}
