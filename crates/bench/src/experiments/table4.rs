//! Table 4: effectiveness of the pruning strategies (duplicate removal and
//! the non-covering-unit cache).

use crate::experiments::runs::TableRuns;
use crate::report::{count, Report};

/// Renders Table 4 from every strategy of `runs`: per family, the pairs'
/// synthesis counters.
pub fn run(runs: &TableRuns) -> Report {
    let mut report = Report::new(
        format!("Table 4: pruning performance ({})", runs.scale.label()),
        &[
            "Matching",
            "Dataset",
            "Generated trans.",
            "Trans. to try",
            "Duplicate trans.",
            "Cache hit ratio",
        ],
    );
    for matching in runs.strategies() {
        for (instance, family) in runs.families(matching) {
            let mut generated = 0u64;
            let mut to_try = 0u64;
            let mut cache_hits = 0u64;
            let mut potential = 0u64;
            for outcome in &family.outcomes {
                let stats = &outcome.synthesis.stats;
                generated += stats.generated_transformations;
                to_try += stats.transformations_to_try;
                cache_hits += stats.cache_hits;
                potential += stats.potential_trials;
            }
            let n = family.outcomes.len().max(1) as f64;
            let duplicate_ratio =
                if generated == 0 { 0.0 } else { 1.0 - to_try as f64 / generated as f64 };
            let cache_hit_ratio =
                if potential == 0 { 0.0 } else { cache_hits as f64 / potential as f64 };
            report.add_row(vec![
                matching.label().into(),
                instance.label.clone(),
                count((generated as f64 / n).round() as u64),
                count((to_try as f64 / n).round() as u64),
                format!("{:.1}%", 100.0 * duplicate_ratio),
                format!("{:.1}%", 100.0 * cache_hit_ratio),
            ]);
        }
    }
    report.add_note("values are means per table pair within each family, as in the paper");
    report
}

#[cfg(test)]
mod tests {
    use tjoin_datasets::SyntheticConfig;
    use tjoin_join::{JoinPipeline, JoinPipelineConfig, RowMatchingStrategy};

    #[test]
    fn pruning_ratios_nontrivial() {
        let pipeline = JoinPipeline::new(JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::paper_default()
        });
        // Synthetic data: the cache does most of the pruning.
        let pair = SyntheticConfig::synth(30).generate(1).column_pair();
        let result = pipeline.run(&pair).synthesis;
        assert!(result.stats.cache_hit_ratio() > 0.3);
        assert!(result.stats.generated_transformations > 100);

        // Address data: rows share surface structure, so duplicate removal
        // eliminates a large fraction (the Table 4 regime).
        let open = tjoin_datasets::realistic::open_data(2, 200).column_pair();
        let result = pipeline.run(&open).synthesis;
        assert!(
            result.stats.duplicate_ratio() > 0.3,
            "duplicate ratio {:.3}",
            result.stats.duplicate_ratio()
        );
    }
}
