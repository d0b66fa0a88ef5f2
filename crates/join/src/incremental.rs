//! Delta-aware incremental join maintenance.
//!
//! The batch pipeline treats every repository snapshot as immutable: a row
//! append means re-matching, re-synthesizing, and re-joining the whole pair
//! from scratch. This module keeps a joined pair **live** under appends
//! instead, following the workspace's oracle discipline — every incremental
//! path has its from-scratch counterpart retained as the differential
//! reference:
//!
//! * [`IncrementalCoverage`] maintains the per-transformation covered-row
//!   lists of a fixed transformation set under appended candidate rows.
//!   Coverage is **row-independent** (each row is scanned against each
//!   transformation in isolation — see `tjoin_core::coverage`), so scoring
//!   only the delta rows and extending the sorted lists is bit-identical to
//!   [`tjoin_core::coverage::compute_coverage`] over the final candidate
//!   set. `tests/proptest_incremental.rs` proves this across random append
//!   schedules and thread counts.
//! * [`IncrementalJoin`] composes that with the pipeline: an append
//!   delta-rescores only the rows it added, and the expensive synthesis
//!   stage re-runs **only when the delta's join quality drops below a
//!   configurable floor** ([`IncrementalJoinConfig::resynthesis_floor`]).
//!   Above the floor the existing transformation set is re-applied via
//!   [`JoinPipeline::join_with_transformations`]; below it the outcome is
//!   replaced by a full [`JoinPipeline::run`] over the grown pair —
//!   bit-identical, by construction, to a fresh pipeline on the final data.
//!
//! Incremental maintenance requires [`RowMatchingStrategy::Golden`]: the
//! n-gram matcher selects representative grams from *whole-column* IRF
//! statistics, so an append could retroactively change which old rows are
//! candidates — there is no sound delta for it. Under golden matching the
//! candidate list grows append-only, which is what makes the delta exact.

use std::time::Instant;

use crate::pipeline::{JoinOutcome, JoinPipeline, JoinPipelineConfig, RowMatchingStrategy};
use tjoin_core::coverage::compute_coverage;
use tjoin_core::PairSet;
use tjoin_datasets::{row_id, ColumnPair};
use tjoin_matching::golden_pairs;
use tjoin_text::{checked_row_count, NormalizeOptions};
use tjoin_units::Transformation;

/// Configuration of [`IncrementalJoin`].
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalJoinConfig {
    /// Minimum fraction of an append's candidate rows the current
    /// transformation set must cover for the set to be kept. A delta whose
    /// coverage falls below this floor triggers a full re-synthesis over
    /// the grown pair. `0.0` never re-synthesizes; `1.0` re-synthesizes on
    /// any uncovered appended row.
    pub resynthesis_floor: f64,
}

impl Default for IncrementalJoinConfig {
    fn default() -> Self {
        Self {
            resynthesis_floor: 0.5,
        }
    }
}

impl IncrementalJoinConfig {
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.resynthesis_floor),
            "resynthesis_floor must be within 0.0..=1.0, got {}",
            self.resynthesis_floor
        );
    }
}

/// Per-transformation covered-row lists maintained incrementally under
/// appended candidate rows.
///
/// Holds a fixed transformation set and, for each transformation, the
/// sorted row indices (into the accumulated candidate list) it covers —
/// the same shape [`tjoin_core::coverage::CoverageOutcome::covered_rows`]
/// produces. [`Self::append_rows`] scores only the delta and extends the
/// lists; the result is bit-identical to a from-scratch
/// [`compute_coverage`] over the final candidates because the coverage scan
/// is row-independent.
#[derive(Debug, Clone)]
pub struct IncrementalCoverage {
    transformations: Vec<Transformation>,
    normalize: NormalizeOptions,
    use_cache: bool,
    threads: usize,
    covered: Vec<Vec<u32>>,
    rows: usize,
}

impl IncrementalCoverage {
    /// Builds the initial state with a full coverage pass over `rows`.
    pub fn new<S: AsRef<str>, T: AsRef<str>>(
        transformations: Vec<Transformation>,
        rows: &[(S, T)],
        normalize: NormalizeOptions,
        use_cache: bool,
        threads: usize,
    ) -> Self {
        let pairs = PairSet::from_strings(rows, &normalize);
        let outcome = compute_coverage(&transformations, &pairs, use_cache, threads);
        Self {
            transformations,
            normalize,
            use_cache,
            threads,
            covered: outcome.covered_rows,
            rows: rows.len(),
        }
    }

    /// Appends candidate rows, scoring **only the delta**: coverage runs
    /// over a delta-only pair set, the returned row ids are offset by the
    /// previous row count, and each sorted covered list is extended in
    /// place. Returns the *delta quality* — the fraction of the appended
    /// rows covered by at least one transformation (`1.0` for an empty
    /// delta, and also when the set itself is empty over a non-empty delta
    /// is `0.0`).
    pub fn append_rows(&mut self, delta: &[(String, String)]) -> f64 {
        if delta.is_empty() {
            return 1.0;
        }
        let base = checked_row_count(self.rows + delta.len())
            .map(|_| self.rows as u32)
            .unwrap_or_else(|e| panic!("appended candidate rows overflow the row-id space: {e}"));
        let pairs = PairSet::from_strings(delta, &self.normalize);
        let outcome = compute_coverage(&self.transformations, &pairs, self.use_cache, self.threads);
        let mut covered_delta = vec![false; delta.len()];
        for (list, fresh) in self.covered.iter_mut().zip(&outcome.covered_rows) {
            for &row in fresh {
                covered_delta[row as usize] = true;
                list.push(base + row);
            }
        }
        self.rows += delta.len();
        covered_delta.iter().filter(|&&c| c).count() as f64 / delta.len() as f64
    }

    /// The transformation set the coverage is maintained for.
    pub fn transformations(&self) -> &[Transformation] {
        &self.transformations
    }

    /// Sorted covered-row lists, one per transformation (input order) —
    /// bit-identical to a from-scratch [`compute_coverage`] over every
    /// candidate row appended so far.
    pub fn covered_rows(&self) -> &[Vec<u32>] {
        &self.covered
    }

    /// Total candidate rows scored so far.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// What one [`IncrementalJoin::append`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendReport {
    /// Number of rows appended to each column.
    pub appended_rows: usize,
    /// Fraction of the appended candidate rows the pre-append
    /// transformation set covered.
    pub delta_quality: f64,
    /// Whether the delta quality fell below the floor and the pair was
    /// fully re-synthesized.
    pub resynthesized: bool,
}

/// A joined column pair kept live under appends.
///
/// Construction runs the full pipeline once; each [`Self::append`] then
/// delta-rescores coverage and either re-applies the existing
/// transformation set (cheap: equi-join + evaluation only) or, when the
/// delta's coverage falls below [`IncrementalJoinConfig::resynthesis_floor`],
/// re-runs the full pipeline over the grown pair. In the re-synthesis case
/// the held [`JoinOutcome`] is bit-identical to a fresh
/// [`JoinPipeline::run`] on the final pair.
#[derive(Debug, Clone)]
pub struct IncrementalJoin {
    pipeline: JoinPipeline,
    config: IncrementalJoinConfig,
    pair: ColumnPair,
    outcome: JoinOutcome,
    coverage: IncrementalCoverage,
}

impl IncrementalJoin {
    /// Runs the full pipeline on `pair` and captures the incremental state.
    ///
    /// Panics unless `pipeline_config.matching` is
    /// [`RowMatchingStrategy::Golden`] (see the module docs for why n-gram
    /// matching admits no sound delta) or if `config` is out of range.
    pub fn new(
        pipeline_config: JoinPipelineConfig,
        config: IncrementalJoinConfig,
        pair: ColumnPair,
    ) -> Self {
        assert!(
            matches!(pipeline_config.matching, RowMatchingStrategy::Golden),
            "incremental join maintenance requires RowMatchingStrategy::Golden: \
             n-gram candidate selection depends on whole-column statistics, so an \
             append could retroactively change old candidates"
        );
        config.validate();
        let pipeline = JoinPipeline::new(pipeline_config);
        let outcome = pipeline.run(&pair);
        let coverage = Self::coverage_state(&pipeline, &outcome, &pair);
        Self {
            pipeline,
            config,
            pair,
            outcome,
            coverage,
        }
    }

    fn coverage_state(
        pipeline: &JoinPipeline,
        outcome: &JoinOutcome,
        pair: &ColumnPair,
    ) -> IncrementalCoverage {
        let candidates = pair.row_values(&golden_pairs(pair));
        let transformations: Vec<Transformation> = outcome
            .transformations
            .transformations
            .iter()
            .map(|c| c.transformation.clone())
            .collect();
        let synthesis = &pipeline.config().synthesis;
        let coverage = IncrementalCoverage::new(
            transformations,
            &candidates,
            synthesis.normalize,
            synthesis.unit_cache,
            synthesis.threads,
        );
        if synthesis.sample_size.is_none() {
            // The greedy cover stores each selected transformation's *full*
            // covered set (not the marginal one), so without sampling the
            // rebuilt lists must equal the pipeline's own — a cheap
            // differential trap on the seeding path.
            let reported: Vec<&Vec<u32>> = outcome
                .transformations
                .transformations
                .iter()
                .map(|c| &c.covered_rows)
                .collect();
            assert!(
                coverage.covered_rows().iter().eq(reported.iter().copied()),
                "seeded incremental coverage diverges from the pipeline's cover"
            );
        }
        coverage
    }

    /// Appends aligned `(source, target)` rows — each delta entry becomes
    /// one new row in both columns, golden-mapped to each other — then
    /// delta-rescores and re-joins (or re-synthesizes, below the floor).
    pub fn append(&mut self, delta: &[(String, String)]) -> AppendReport {
        if delta.is_empty() {
            return AppendReport {
                appended_rows: 0,
                delta_quality: 1.0,
                resynthesized: false,
            };
        }
        for (source, target) in delta {
            let source_id = row_id(self.pair.source.len());
            let target_id = row_id(self.pair.target.len());
            self.pair.source.push(source.clone());
            self.pair.target.push(target.clone());
            self.pair.golden.push((source_id, target_id));
        }
        let delta_quality = self.coverage.append_rows(delta);
        let resynthesized = delta_quality < self.config.resynthesis_floor;
        if resynthesized {
            self.outcome = self.pipeline.run(&self.pair);
            self.coverage = Self::coverage_state(&self.pipeline, &self.outcome, &self.pair);
        } else {
            let join_start = Instant::now();
            let (predicted, metrics) = self.pipeline.join_with_transformations(
                &self.pair,
                self.outcome
                    .transformations
                    .transformations
                    .iter()
                    .map(|c| &c.transformation),
            );
            let join_time = join_start.elapsed();
            self.outcome.predicted_pairs = predicted;
            self.outcome.metrics = metrics;
            self.outcome.candidate_pairs += delta.len();
            self.outcome.join_time = join_time;
            for (covered, fresh) in self
                .outcome
                .transformations
                .transformations
                .iter_mut()
                .zip(self.coverage.covered_rows())
            {
                covered.covered_rows = fresh.clone();
            }
            self.outcome.transformations.total_pairs = self.coverage.rows();
        }
        AppendReport {
            appended_rows: delta.len(),
            delta_quality,
            resynthesized,
        }
    }

    /// The accumulated column pair (base plus every append).
    pub fn pair(&self) -> &ColumnPair {
        &self.pair
    }

    /// The current join outcome. After a re-synthesizing append this is
    /// bit-identical to a fresh [`JoinPipeline::run`] on [`Self::pair`];
    /// after a kept append it reflects the retained transformation set
    /// re-applied to the grown pair, while its `synthesis` still describes
    /// the last synthesis run (at construction or at the last
    /// re-synthesizing append).
    pub fn outcome(&self) -> &JoinOutcome {
        &self.outcome
    }

    /// The incrementally maintained coverage state.
    pub fn coverage(&self) -> &IncrementalCoverage {
        &self.coverage
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &JoinPipeline {
        &self.pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::JoinPipelineConfig;

    fn aligned_pair(rows: &[(&str, &str)]) -> ColumnPair {
        ColumnPair::aligned(
            "incremental",
            rows.iter().map(|(s, _)| s.to_string()).collect(),
            rows.iter().map(|(_, t)| t.to_string()).collect(),
        )
    }

    fn staff_rows() -> Vec<(&'static str, &'static str)> {
        vec![
            ("Chen, Amy", "A Chen"),
            ("Smith, Bob", "B Smith"),
            ("Jones, Carol", "C Jones"),
            ("Brown, Dan", "D Brown"),
        ]
    }

    fn golden_config() -> JoinPipelineConfig {
        JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::default()
        }
    }

    fn assert_outcomes_identical(actual: &JoinOutcome, expected: &JoinOutcome) {
        assert_eq!(actual.transformations, expected.transformations);
        assert_eq!(actual.predicted_pairs, expected.predicted_pairs);
        assert_eq!(actual.metrics, expected.metrics);
        assert_eq!(actual.candidate_pairs, expected.candidate_pairs);
    }

    #[test]
    fn incremental_coverage_matches_from_scratch_oracle() {
        let base: Vec<(String, String)> = staff_rows()
            .iter()
            .map(|(s, t)| (s.to_string(), t.to_string()))
            .collect();
        let pipeline = JoinPipeline::new(golden_config());
        let outcome = pipeline.run(&aligned_pair(&staff_rows()));
        let transformations: Vec<Transformation> = outcome
            .transformations
            .transformations
            .iter()
            .map(|c| c.transformation.clone())
            .collect();
        assert!(!transformations.is_empty(), "fixture must synthesize");

        let mut incremental = IncrementalCoverage::new(
            transformations.clone(),
            &base[..2],
            NormalizeOptions::default(),
            true,
            1,
        );
        incremental.append_rows(&base[2..3]);
        incremental.append_rows(&base[3..]);

        let pairs = PairSet::from_strings(&base, &NormalizeOptions::default());
        let oracle = compute_coverage(&transformations, &pairs, true, 1);
        assert_eq!(incremental.covered_rows(), &oracle.covered_rows[..]);
        assert_eq!(incremental.rows(), base.len());
    }

    #[test]
    fn covered_append_keeps_transformations_and_rejoins() {
        let mut join = IncrementalJoin::new(
            golden_config(),
            IncrementalJoinConfig {
                resynthesis_floor: 1.0,
            },
            aligned_pair(&staff_rows()),
        );
        let before: Vec<String> = join
            .outcome()
            .transformations
            .transformations
            .iter()
            .map(|c| c.transformation.to_string())
            .collect();
        let report = join.append(&[("Davis, Erin".to_string(), "E Davis".to_string())]);
        assert_eq!(report.appended_rows, 1);
        assert_eq!(report.delta_quality, 1.0, "same-format row must be covered");
        assert!(!report.resynthesized);
        let after: Vec<String> = join
            .outcome()
            .transformations
            .transformations
            .iter()
            .map(|c| c.transformation.to_string())
            .collect();
        assert_eq!(before, after, "kept append must not change the programs");
        assert_eq!(join.pair().source.len(), 5);
        assert_eq!(join.outcome().candidate_pairs, 5);
        assert!(
            join.outcome().predicted_pairs.contains(&(4, 4)),
            "re-join must pick up the appended row: {:?}",
            join.outcome().predicted_pairs
        );
    }

    #[test]
    fn uncovered_append_resynthesizes_bit_identically_to_full_run() {
        let mut join = IncrementalJoin::new(
            golden_config(),
            IncrementalJoinConfig {
                resynthesis_floor: 1.0,
            },
            aligned_pair(&staff_rows()),
        );
        // A format family the "Lastname, Firstname" programs cannot cover.
        let delta = vec![
            ("2024-01-02".to_string(), "02/01/2024".to_string()),
            ("2024-03-04".to_string(), "04/03/2024".to_string()),
        ];
        let report = join.append(&delta);
        assert!(report.delta_quality < 1.0, "delta must be uncovered");
        assert!(report.resynthesized);
        let fresh = JoinPipeline::new(golden_config()).run(join.pair());
        assert_outcomes_identical(join.outcome(), &fresh);
    }

    #[test]
    fn floor_zero_never_resynthesizes() {
        let mut join = IncrementalJoin::new(
            golden_config(),
            IncrementalJoinConfig {
                resynthesis_floor: 0.0,
            },
            aligned_pair(&staff_rows()),
        );
        let report = join.append(&[("2024-01-02".to_string(), "02/01/2024".to_string())]);
        assert!(!report.resynthesized, "floor 0.0 must keep the set");
        assert!(report.delta_quality < 1.0);
    }

    #[test]
    fn empty_append_is_a_noop() {
        let mut join = IncrementalJoin::new(
            golden_config(),
            IncrementalJoinConfig::default(),
            aligned_pair(&staff_rows()),
        );
        let before = join.outcome().clone();
        let report = join.append(&[]);
        assert_eq!(report.appended_rows, 0);
        assert_eq!(report.delta_quality, 1.0);
        assert!(!report.resynthesized);
        assert_outcomes_identical(join.outcome(), &before);
    }

    #[test]
    #[should_panic(expected = "requires RowMatchingStrategy::Golden")]
    fn ngram_matching_rejected() {
        let _ = IncrementalJoin::new(
            JoinPipelineConfig::default(),
            IncrementalJoinConfig::default(),
            aligned_pair(&staff_rows()),
        );
    }

    #[test]
    #[should_panic(expected = "resynthesis_floor")]
    fn out_of_range_floor_rejected() {
        let _ = IncrementalJoin::new(
            golden_config(),
            IncrementalJoinConfig {
                resynthesis_floor: 1.5,
            },
            aligned_pair(&staff_rows()),
        );
    }
}
