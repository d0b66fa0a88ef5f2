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
use tjoin_join::JoinMetrics;
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

/// A dataset family's row in Tables 1 and 3: the per-pair counts summed,
/// and the per-pair mean of precision, recall and F1 (the default with no
/// pairs).
fn average(metrics: &[JoinMetrics]) -> JoinMetrics {
    if metrics.is_empty() {
        return JoinMetrics::default();
    }
    let n = metrics.len() as f64;
    JoinMetrics {
        predicted: metrics.iter().map(|m| m.predicted).sum(),
        golden: metrics.iter().map(|m| m.golden).sum(),
        true_positives: metrics.iter().map(|m| m.true_positives).sum(),
        precision: metrics.iter().map(|m| m.precision).sum::<f64>() / n,
        recall: metrics.iter().map(|m| m.recall).sum::<f64>() / n,
        f1: metrics.iter().map(|m| m.f1).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_sums_counts_and_means_the_rates() {
        let perfect = JoinMetrics::from_counts(2, 2, 2);
        let half = JoinMetrics::from_counts(1, 2, 4);
        let averaged = average(&[perfect, half]);
        assert_eq!(
            (averaged.predicted, averaged.golden, averaged.true_positives),
            (4, 6, 3)
        );
        // The mean of the per-pair rates, not the rates of the summed counts
        // (which would give precision 3/4, recall 3/6).
        assert!((averaged.precision - (1.0 + 0.5) / 2.0).abs() < 1e-12);
        assert!((averaged.recall - (1.0 + 0.25) / 2.0).abs() < 1e-12);
        assert!((averaged.f1 - (1.0 + half.f1) / 2.0).abs() < 1e-12);
        assert_eq!(average(&[]), JoinMetrics::default());
    }

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
