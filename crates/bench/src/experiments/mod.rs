//! Experiment implementations, one module per paper table / figure.
//!
//! Each module renders the report (or small set of reports) that the
//! corresponding binary in `src/bin/` prints, so the logic is unit testable
//! without spawning processes. Table 1, the figures and the sampling
//! section compute their own inputs from a scale and a seed. Tables 2–4
//! report on the same synthesis runs, so each `run` reads one
//! [`runs::TableRuns`], which the binary computes with what its table needs.

pub mod figures;
pub mod runs;
pub mod sampling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use tjoin_join::JoinMetrics;

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
}
