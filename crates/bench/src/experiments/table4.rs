//! Table 4: effectiveness of the pruning strategies (duplicate removal and
//! the non-covering-unit cache).

use crate::report::{count, Report};
use crate::scale::Scale;
use crate::suite::DatasetInstance;
use tjoin_core::{PairSet, SynthesisEngine};
use tjoin_join::RowMatchingStrategy;

/// One (dataset, matching-mode) row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Dataset label.
    pub dataset: String,
    /// Row-matching strategy.
    pub matching: RowMatchingStrategy,
    /// Average generated transformations per table pair.
    pub generated: f64,
    /// Average distinct transformations to try per table pair.
    pub to_try: f64,
    /// Duplicate ratio (fraction of generated removed).
    pub duplicate_ratio: f64,
    /// Cache hit ratio over potential (transformation, row) trials.
    pub cache_hit_ratio: f64,
}

/// Runs the pruning-statistics experiment.
pub fn compute(scale: Scale, seed: u64) -> Vec<Table4Row> {
    let mut out = Vec::new();
    for matching in [RowMatchingStrategy::default(), RowMatchingStrategy::Golden] {
        for instance in DatasetInstance::load_all(scale, seed) {
            let engine = SynthesisEngine::new(instance.synthesis.clone());
            let mut generated = 0u64;
            let mut to_try = 0u64;
            let mut cache_hits = 0u64;
            let mut potential = 0u64;
            for pair in &instance.pairs {
                let rows = matching
                    .candidates(pair, None, None)
                    .expect("unbudgeted per-call matching cannot abort");
                let result = engine.discover(&PairSet::from_strings(
                    &pair.row_values(&rows),
                    &instance.synthesis.normalize,
                ));
                generated += result.stats.generated_transformations;
                to_try += result.stats.transformations_to_try;
                cache_hits += result.stats.cache_hits;
                potential += result.stats.potential_trials;
            }
            let n = instance.pairs.len().max(1) as f64;
            out.push(Table4Row {
                dataset: instance.label.clone(),
                matching: matching.clone(),
                generated: generated as f64 / n,
                to_try: to_try as f64 / n,
                duplicate_ratio: if generated == 0 {
                    0.0
                } else {
                    1.0 - to_try as f64 / generated as f64
                },
                cache_hit_ratio: if potential == 0 {
                    0.0
                } else {
                    cache_hits as f64 / potential as f64
                },
            });
        }
    }
    out
}

/// Renders Table 4.
pub fn run(scale: Scale, seed: u64) -> Report {
    let rows = compute(scale, seed);
    let mut report = Report::new(
        format!("Table 4: pruning performance ({})", scale.label()),
        &[
            "Matching",
            "Dataset",
            "Generated trans.",
            "Trans. to try",
            "Duplicate trans.",
            "Cache hit ratio",
        ],
    );
    for r in rows {
        report.add_row(vec![
            r.matching.label().into(),
            r.dataset,
            count(r.generated.round() as u64),
            count(r.to_try.round() as u64),
            format!("{:.1}%", 100.0 * r.duplicate_ratio),
            format!("{:.1}%", 100.0 * r.cache_hit_ratio),
        ]);
    }
    report.add_note("values are means per table pair within each family, as in the paper");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_datasets::SyntheticConfig;
    use tjoin_matching::golden_pairs;

    #[test]
    fn pruning_ratios_nontrivial() {
        // Synthetic data: the cache does most of the pruning.
        let pair = SyntheticConfig::synth(30).generate(1).column_pair();
        let candidates = pair.row_values(&golden_pairs(&pair));
        let engine = SynthesisEngine::new(tjoin_core::SynthesisConfig::default());
        let result = engine.discover_from_strings(&candidates);
        assert!(result.stats.cache_hit_ratio() > 0.3);
        assert!(result.stats.generated_transformations > 100);

        // Address data: rows share surface structure, so duplicate removal
        // eliminates a large fraction (the Table 4 regime).
        let open = tjoin_datasets::realistic::open_data(2, 200).column_pair();
        let candidates = open.row_values(&golden_pairs(&open));
        let result = engine.discover_from_strings(&candidates);
        assert!(
            result.stats.duplicate_ratio() > 0.3,
            "duplicate ratio {:.3}",
            result.stats.duplicate_ratio()
        );
    }
}
