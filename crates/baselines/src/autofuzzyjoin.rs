//! The Auto-FuzzyJoin baseline (Li et al., SIGMOD 2021).
//!
//! Auto-FuzzyJoin ("AFJ" in the paper's Table 3) joins two columns with
//! similarity functions rather than transformations: it considers a family of
//! similarity measures, automatically selects a measure/threshold
//! configuration that looks precise without needing labels, and returns the
//! row pairs above the chosen threshold. It produces no transformations and
//! therefore no interpretable join patterns — the property the paper
//! contrasts against.
//!
//! This implementation keeps the ingredients that drive AFJ's reported
//! behaviour: a measure family (n-gram Jaccard, n-gram containment,
//! longest-common-substring ratio), a left-to-right one-to-many join
//! direction, a candidate pre-filter via an n-gram index, and an automatic
//! threshold chosen by maximizing an unsupervised precision proxy (the
//! relative margin between each source row's best and second-best match).

use serde::{Deserialize, Serialize};
use tjoin_datasets::{row_id, ColumnPair};
use tjoin_text::{
    lcs_ratio, ngram_containment, ngram_jaccard, normalize_for_matching, NGramIndex,
    NormalizeOptions,
};

/// The similarity measures AFJ may select from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimilarityMeasure {
    /// Jaccard similarity of character n-gram sets.
    NGramJaccard,
    /// Containment of the source's n-gram set in the target's.
    NGramContainment,
    /// Longest-common-substring length over the shorter string's length.
    LcsRatio,
}

impl SimilarityMeasure {
    /// All measures in the selection family.
    pub const ALL: [SimilarityMeasure; 3] = [
        SimilarityMeasure::NGramJaccard,
        SimilarityMeasure::NGramContainment,
        SimilarityMeasure::LcsRatio,
    ];

    /// Computes the measure between two normalized strings.
    pub fn compute(&self, a: &str, b: &str, n: usize) -> f64 {
        match self {
            SimilarityMeasure::NGramJaccard => ngram_jaccard(a, b, n),
            SimilarityMeasure::NGramContainment => ngram_containment(b, a, n),
            SimilarityMeasure::LcsRatio => lcs_ratio(a, b),
        }
    }
}

/// Configuration of the Auto-FuzzyJoin baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoFuzzyJoinConfig {
    /// n-gram size used by the set-based measures and the candidate index.
    pub ngram_size: usize,
    /// Candidate pre-filter: only target rows sharing at least one n-gram
    /// with the source row are scored.
    pub index_ngram_size: usize,
    /// Measures considered during auto-configuration.
    pub measures: Vec<SimilarityMeasure>,
    /// Threshold grid searched during auto-configuration.
    pub threshold_grid: Vec<f64>,
    /// Normalization applied before scoring.
    pub normalize: NormalizeOptions,
    /// When set, skip auto-configuration and use this fixed (measure,
    /// threshold) pair.
    pub fixed: Option<(SimilarityMeasure, f64)>,
}

impl Default for AutoFuzzyJoinConfig {
    fn default() -> Self {
        Self {
            ngram_size: 3,
            index_ngram_size: 3,
            measures: SimilarityMeasure::ALL.to_vec(),
            threshold_grid: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            normalize: NormalizeOptions::default(),
            fixed: None,
        }
    }
}

/// The Auto-FuzzyJoin baseline joiner.
#[derive(Debug, Clone, Default)]
pub struct AutoFuzzyJoin {
    config: AutoFuzzyJoinConfig,
}

/// Result of an AFJ run: the predicted joinable pairs plus the configuration
/// it selected.
#[derive(Debug, Clone)]
pub struct AutoFuzzyJoinResult {
    /// Predicted joinable row pairs `(source_row, target_row)`.
    pub pairs: Vec<(u32, u32)>,
    /// The similarity measure selected.
    pub measure: SimilarityMeasure,
    /// The threshold selected.
    pub threshold: f64,
}

impl AutoFuzzyJoin {
    /// Creates the joiner with the given configuration.
    pub fn new(config: AutoFuzzyJoinConfig) -> Self {
        assert!(config.ngram_size >= 1);
        assert!(!config.threshold_grid.is_empty());
        assert!(!config.measures.is_empty());
        Self { config }
    }

    /// Joins the two columns of `pair`, returning predicted row pairs.
    pub fn join(&self, pair: &ColumnPair) -> AutoFuzzyJoinResult {
        let source: Vec<String> = pair
            .source
            .iter()
            .map(|v| normalize_for_matching(v, &self.config.normalize))
            .collect();
        let target: Vec<String> = pair
            .target
            .iter()
            .map(|v| normalize_for_matching(v, &self.config.normalize))
            .collect();
        let index = NGramIndex::build(&target, self.config.index_ngram_size, self.config.index_ngram_size);

        // Candidate targets per source row via the n-gram pre-filter.
        let candidates: Vec<Vec<u32>> = source
            .iter()
            .map(|s| {
                let grams = tjoin_text::char_ngrams(s, self.config.index_ngram_size);
                index.rows_containing_any(grams)
            })
            .collect();

        let (measure, threshold) = match self.config.fixed {
            Some(cfg) => cfg,
            None => self.auto_configure(&source, &target, &candidates),
        };

        let mut pairs = Vec::new();
        for (src_row, cands) in candidates.iter().enumerate() {
            for &tgt_row in cands {
                let sim = measure.compute(
                    &source[src_row],
                    &target[tgt_row as usize],
                    self.config.ngram_size,
                );
                if sim >= threshold {
                    pairs.push((row_id(src_row), tgt_row));
                }
            }
        }
        AutoFuzzyJoinResult {
            pairs,
            measure,
            threshold,
        }
    }

    /// Unsupervised configuration selection: for every (measure, threshold)
    /// combination, score the join by an estimated-precision proxy — the
    /// average margin between each matched source row's best and second-best
    /// candidate — times the number of matched rows (so degenerate
    /// "match nothing" configurations do not win). The best-scoring
    /// configuration is returned.
    fn auto_configure(
        &self,
        source: &[String],
        target: &[String],
        candidates: &[Vec<u32>],
    ) -> (SimilarityMeasure, f64) {
        let mut best: Option<(f64, SimilarityMeasure, f64)> = None;
        for &measure in &self.config.measures {
            // Pre-compute per-source best and second-best similarity.
            let mut best_sims: Vec<(f64, f64)> = Vec::with_capacity(source.len());
            for (src_row, cands) in candidates.iter().enumerate() {
                let mut top = 0.0f64;
                let mut second = 0.0f64;
                for &t in cands {
                    let sim = measure.compute(&source[src_row], &target[t as usize], self.config.ngram_size);
                    if sim > top {
                        second = top;
                        top = sim;
                    } else if sim > second {
                        second = sim;
                    }
                }
                best_sims.push((top, second));
            }
            for &threshold in &self.config.threshold_grid {
                let matched: Vec<&(f64, f64)> =
                    best_sims.iter().filter(|(top, _)| *top >= threshold).collect();
                if matched.is_empty() {
                    continue;
                }
                let margin: f64 = matched
                    .iter()
                    .map(|(top, second)| (top - second).max(0.0))
                    .sum::<f64>()
                    / matched.len() as f64;
                let coverage = matched.len() as f64 / source.len().max(1) as f64;
                let score = margin * coverage.sqrt();
                if best.map(|(s, _, _)| score > s).unwrap_or(true) {
                    best = Some((score, measure, threshold));
                }
            }
        }
        best.map(|(_, m, t)| (m, t))
            .unwrap_or((SimilarityMeasure::NGramJaccard, 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abbreviation_pair() -> ColumnPair {
        ColumnPair::aligned(
            "staff",
            vec![
                "Rafiei, Davood".into(),
                "Nascimento, Mario".into(),
                "Bowling, Michael".into(),
                "Gosgnach, Simon".into(),
            ],
            vec![
                "D Rafiei".into(),
                "M Nascimento".into(),
                "M Bowling".into(),
                "S Gosgnach".into(),
            ],
        )
    }

    #[test]
    fn joins_similar_values() {
        let afj = AutoFuzzyJoin::default();
        let result = afj.join(&abbreviation_pair());
        // Every true pair shares the distinctive last name and must be found.
        for i in 0..4u32 {
            assert!(
                result.pairs.contains(&(i, i)),
                "missing true pair {i}: {result:?}"
            );
        }
    }

    #[test]
    fn cannot_join_dissimilar_representations() {
        // Name to user-id style emails share almost no n-grams after the
        // initial; similarity joining misses most pairs (the weakness the
        // paper's transformation-based approach addresses).
        let pair = ColumnPair::aligned(
            "ids",
            vec!["Rafiei, Davood".into(), "Bowling, Michael".into()],
            vec!["drafiei".into(), "mbowling".into()],
        );
        let afj = AutoFuzzyJoin::new(AutoFuzzyJoinConfig {
            fixed: Some((SimilarityMeasure::NGramJaccard, 0.8)),
            ..AutoFuzzyJoinConfig::default()
        });
        let result = afj.join(&pair);
        assert!(result.pairs.len() < 2, "unexpectedly joined: {result:?}");
    }

    #[test]
    fn fixed_configuration_respected() {
        let afj = AutoFuzzyJoin::new(AutoFuzzyJoinConfig {
            fixed: Some((SimilarityMeasure::LcsRatio, 0.9)),
            ..AutoFuzzyJoinConfig::default()
        });
        let result = afj.join(&abbreviation_pair());
        assert_eq!(result.measure, SimilarityMeasure::LcsRatio);
        assert!((result.threshold - 0.9).abs() < 1e-12);
    }

    #[test]
    fn auto_configuration_picks_some_measure() {
        let afj = AutoFuzzyJoin::default();
        let result = afj.join(&abbreviation_pair());
        assert!(SimilarityMeasure::ALL.contains(&result.measure));
        assert!(result.threshold > 0.0 && result.threshold <= 1.0);
    }

    #[test]
    fn empty_columns() {
        let afj = AutoFuzzyJoin::default();
        let result = afj.join(&ColumnPair::default());
        assert!(result.pairs.is_empty());
    }

    #[test]
    fn measures_are_bounded() {
        for m in SimilarityMeasure::ALL {
            let v = m.compute("rafiei davood", "d rafiei", 3);
            assert!((0.0..=1.0).contains(&v), "{m:?} out of range: {v}");
        }
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        let _ = AutoFuzzyJoin::new(AutoFuzzyJoinConfig {
            threshold_grid: vec![],
            ..AutoFuzzyJoinConfig::default()
        });
    }
}
