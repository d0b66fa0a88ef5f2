//! Precision, recall and F1 of `(source_row, target_row)` pairs against the
//! golden mapping: the matcher's candidates (Table 1 of the paper) and the
//! end-to-end join's predictions (Table 3).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Precision / recall / F1 of predicted join pairs against the golden
/// mapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JoinMetrics {
    /// Number of predicted pairs.
    pub predicted: usize,
    /// Number of golden pairs.
    pub golden: usize,
    /// Predicted pairs that are golden.
    pub true_positives: usize,
    /// Precision = TP / predicted.
    pub precision: f64,
    /// Recall = TP / golden.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl JoinMetrics {
    /// Builds the metric set from raw counts — the single place the
    /// precision / recall / F1 formulas (and their empty-set conventions:
    /// zero, not NaN) live. Used by [`evaluate_join`] for one pair and by
    /// the batch runner's micro-average over summed repository counts.
    pub fn from_counts(true_positives: usize, predicted: usize, golden: usize) -> Self {
        let precision = if predicted == 0 {
            0.0
        } else {
            true_positives as f64 / predicted as f64
        };
        let recall = if golden == 0 {
            0.0
        } else {
            true_positives as f64 / golden as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            predicted,
            golden,
            true_positives,
            precision,
            recall,
            f1,
        }
    }
}

/// Evaluates predicted `(source_row, target_row)` pairs against the golden
/// mapping. Duplicates on either side are counted once.
pub fn evaluate_join(predicted: &[(u32, u32)], golden: &[(u32, u32)]) -> JoinMetrics {
    let predicted_set: HashSet<(u32, u32)> = predicted.iter().copied().collect();
    let golden_set: HashSet<(u32, u32)> = golden.iter().copied().collect();
    let true_positives = predicted_set.intersection(&golden_set).count();
    JoinMetrics::from_counts(true_positives, predicted_set.len(), golden_set.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_join() {
        let m = evaluate_join(&[(0, 0), (1, 1)], &[(0, 0), (1, 1)]);
        assert_eq!(m.true_positives, 2);
        assert!((m.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_tradeoff() {
        // 1 TP out of 2 predictions, 1 of 4 golden pairs found.
        let m = evaluate_join(&[(0, 0), (5, 5)], &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.25).abs() < 1e-12);
        assert!((m.f1 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(evaluate_join(&[], &[(0, 0)]).f1, 0.0);
        assert_eq!(evaluate_join(&[(0, 0)], &[]).f1, 0.0);
        assert_eq!(evaluate_join(&[], &[]).f1, 0.0);
    }

    #[test]
    fn duplicates_deduplicated() {
        let m = evaluate_join(&[(0, 0), (0, 0)], &[(0, 0)]);
        assert_eq!(m.predicted, 1);
        assert!((m.precision - 1.0).abs() < 1e-12);
    }
}
