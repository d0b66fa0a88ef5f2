//! Figures 3, 4a, and 4b: pruning ratios and per-module runtime as the input
//! grows vertically (rows) and horizontally (value length).

use crate::report::{count, secs, Report};
use crate::scale::Scale;
use tjoin_core::{SynthesisConfig, SynthesisEngine, SynthesisStats};
use tjoin_datasets::SyntheticConfig;

/// One sweep point shared by the three figures.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Number of rows at this point.
    pub rows: usize,
    /// Source value length at this point.
    pub length: usize,
    /// Synthesis statistics measured at this point.
    pub stats: SynthesisStats,
    /// Coverage of the covering set (sanity signal: pruning must not cost
    /// coverage).
    pub set_coverage: f64,
}

/// Runs synthesis on a synthetic pair with the given shape and returns the
/// measured statistics.
pub fn measure(rows: usize, length: usize, seed: u64) -> SweepPoint {
    let dataset = SyntheticConfig::with_fixed_length(rows, length).generate(seed);
    let pair = dataset.column_pair();
    let values: Vec<(&String, &String)> = pair.source.iter().zip(&pair.target).collect();
    let result = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&values);
    SweepPoint {
        rows,
        length,
        set_coverage: result.set_coverage(),
        stats: result.stats,
    }
}

/// Figure 3: duplicate-transformation ratio and cache hit ratio as the input
/// length grows (rows fixed).
pub fn figure3(scale: Scale, seed: u64) -> Report {
    let rows = scale.sweep_rows();
    let mut report = Report::new(
        format!("Figure 3: pruning vs input length ({} rows, {})", rows, scale.label()),
        &[
            "Length",
            "Generated",
            "To try",
            "Duplicate %",
            "Cache hit %",
            "Coverage",
        ],
    );
    for length in scale.length_sweep() {
        let point = measure(rows, length, seed);
        report.add_row(vec![
            length.to_string(),
            count(point.stats.generated_transformations),
            count(point.stats.transformations_to_try),
            format!("{:.1}", 100.0 * point.stats.duplicate_ratio()),
            format!("{:.1}", 100.0 * point.stats.cache_hit_ratio()),
            format!("{:.2}", point.set_coverage),
        ]);
    }
    report.add_note("paper Figure 3: both ratios rise with length, duplicates approaching ~98% at length 280");
    report
}

/// The columns of Figures 4a and 4b after the swept one: the paper's four
/// modules, then selection, which the paper does not plot, so that the
/// columns add up to the total.
const BREAKDOWN: [&str; 6] = [
    "Placeholder gen (s)",
    "Unit extraction (s)",
    "Duplicate removal (s)",
    "Applying trans. (s)",
    "Selection (s)",
    "Total (s)",
];

/// A Figure 4 report: `swept` then the [`BREAKDOWN`] columns, one row per
/// sweep point.
fn breakdown(title: String, swept: &str, points: impl Iterator<Item = (usize, SweepPoint)>) -> Report {
    let mut header = vec![swept];
    header.extend(BREAKDOWN);
    let mut report = Report::new(title, &header);
    for (x, point) in points {
        let t = &point.stats.timings;
        report.add_row(vec![
            x.to_string(),
            secs(t.placeholder_generation),
            secs(t.unit_extraction),
            secs(t.duplicate_removal),
            secs(t.applying_transformations),
            secs(t.cover_selection),
            secs(t.total()),
        ]);
    }
    report.add_note("the paper plots the first four modules; Selection (support filter and greedy cover) completes the total");
    report
}

/// Figure 4a: per-module runtime as the number of rows grows (length fixed
/// at 28, the paper's setting).
pub fn figure4a(scale: Scale, seed: u64) -> Report {
    let mut report = breakdown(
        format!("Figure 4a: runtime breakdown vs number of rows (length 28, {})", scale.label()),
        "Rows",
        scale.row_sweep().into_iter().map(|rows| (rows, measure(rows, 28, seed))),
    );
    report.add_note("paper Figure 4a: applying transformations dominates and grows near-quadratically without pruning, near-linearly with it");
    report
}

/// Figure 4b: per-module runtime as the input length grows (rows fixed).
pub fn figure4b(scale: Scale, seed: u64) -> Report {
    let rows = scale.sweep_rows();
    let mut report = breakdown(
        format!("Figure 4b: runtime breakdown vs input length ({} rows, {})", rows, scale.label()),
        "Length",
        scale.length_sweep().into_iter().map(|length| (length, measure(rows, length, seed))),
    );
    report.add_note("paper Figure 4b: past a certain length, generation/duplicate-removal time overtakes the (heavily cached) application time");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_is_consistent() {
        let p = measure(30, 24, 5);
        assert_eq!(p.rows, 30);
        assert_eq!(p.length, 24);
        assert!(p.set_coverage > 0.9, "coverage {}", p.set_coverage);
        assert!(p.stats.generated_transformations > 0);
    }

    #[test]
    fn longer_inputs_generate_more_transformations() {
        let short = measure(20, 24, 7);
        let long = measure(20, 96, 7);
        assert!(
            long.stats.generated_transformations > short.stats.generated_transformations,
            "short {} long {}",
            short.stats.generated_transformations,
            long.stats.generated_transformations
        );
        // More work is pruned in absolute terms on the longer input
        // (Figure 3's observation that pruning absorbs horizontal growth).
        let pruned = |s: &tjoin_core::SynthesisStats| {
            (s.generated_transformations - s.transformations_to_try) + s.cache_hits
        };
        assert!(
            pruned(&long.stats) > pruned(&short.stats),
            "short {:?} long {:?}",
            pruned(&short.stats),
            pruned(&long.stats)
        );
    }
}
