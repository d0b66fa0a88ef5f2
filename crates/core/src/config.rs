//! Synthesis engine configuration.

use crate::coverage::CoverageAxis;
use serde::{Deserialize, Serialize};
use tjoin_text::NormalizeOptions;
use tjoin_units::UnitKind;

/// Configuration of the [`crate::SynthesisEngine`].
///
/// The defaults mirror the paper's experimental setup (Section 6.2): up to 3
/// placeholders per transformation, the unit set without
/// `TwoCharSplitSubstr`, placeholder re-splitting on separators enabled, both
/// pruning strategies enabled, no sampling, and no support threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisConfig {
    /// Maximum number of placeholders (non-constant units) per transformation
    /// (the paper's "number of placeholders / tree depth" parameter; 3 for
    /// web, open, and synthetic data, 4 for spreadsheet data).
    pub max_placeholders: usize,
    /// Unit kinds the generator may emit. `Literal` is always allowed
    /// implicitly; listing it here is harmless.
    pub unit_kinds: Vec<UnitKind>,
    /// Support threshold: transformations covering a smaller fraction of the
    /// input are dropped from the result (0.0 disables; the paper uses 1 % on
    /// Open data).
    pub min_support: f64,
    /// When set, synthesis runs on a random sample of this many pairs
    /// (Section 5.3); coverage is still reported against the sampled pairs.
    pub sample_size: Option<usize>,
    /// Seed for the sampling RNG (and any other tie-breaking randomness).
    pub sample_seed: u64,
    /// Duplicate-transformation removal (pruning strategy 1, Section 6.6).
    /// Disabling it is only useful for ablation measurements.
    pub deduplicate: bool,
    /// Per-row non-covering-unit cache (pruning strategy 2, Section 6.6).
    pub unit_cache: bool,
    /// Re-split maximal placeholders at separator characters, generating the
    /// additional skeletons of Section 4.1.3.
    pub resplit_placeholders: bool,
    /// Upper bound on skeletons enumerated per row (safety valve for
    /// pathological rows; the paper's bound is `2^p`).
    pub max_skeletons_per_row: usize,
    /// Upper bound on candidate units kept per placeholder (safety valve; the
    /// parameter space per placeholder is small in practice — Section 5.1).
    pub max_units_per_placeholder: usize,
    /// Upper bound on candidate transformations generated per row before
    /// deduplication (safety valve against pathological rows whose skeleton
    /// Cartesian products explode).
    pub max_transformations_per_row: usize,
    /// Normalization applied to both columns before synthesis.
    pub normalize: NormalizeOptions,
    /// Number of worker threads for the coverage phase (1 = sequential).
    /// Coverage splits the rows into contiguous chunks, one per worker; its
    /// outcome, counters included, is the same at every thread count.
    ///
    /// This field is the workspace-wide thread-budget convention: the row
    /// matcher (`NGramMatcherConfig::threads`), the join pipeline's
    /// equi-join apply loop, and the batch join runner's shared budget all
    /// follow the same semantics — results are bit-identical at any value,
    /// only wall-clock changes. `JoinPipelineConfig::with_threads` applies
    /// one budget across every stage.
    pub threads: usize,
    /// No effect: the single-valued residue of the retired coverage-axis
    /// knob (see [`CoverageAxis`]).
    pub coverage_axis: CoverageAxis,
    /// No effect: the best transformation is the covering set's first pick.
    pub top_k: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            max_placeholders: 3,
            unit_kinds: UnitKind::PAPER_EXPERIMENT_SET.to_vec(),
            min_support: 0.0,
            sample_size: None,
            sample_seed: 0,
            deduplicate: true,
            unit_cache: true,
            resplit_placeholders: true,
            max_skeletons_per_row: 16,
            max_units_per_placeholder: 24,
            max_transformations_per_row: 10_000,
            normalize: NormalizeOptions::default(),
            threads: 1,
            coverage_axis: CoverageAxis::Auto,
            top_k: 10,
        }
    }
}

impl SynthesisConfig {
    /// The configuration the paper uses for the spreadsheet benchmark
    /// (4 placeholders because of the "smaller textual pieces" in that data).
    pub fn spreadsheet() -> Self {
        Self {
            max_placeholders: 4,
            ..Self::default()
        }
    }

    /// The configuration the paper uses for Open data: a ≤ 3000-pair sample
    /// and a 1 % support threshold.
    pub fn open_data() -> Self {
        Self {
            sample_size: Some(3000),
            min_support: 0.01,
            ..Self::default()
        }
    }

    /// Disables both pruning strategies (for the ablation experiments of
    /// Section 6.6 / Figure 3).
    pub fn without_pruning(mut self) -> Self {
        self.deduplicate = false;
        self.unit_cache = false;
        self
    }

    /// Builder-style setter for the placeholder bound.
    pub fn with_max_placeholders(mut self, p: usize) -> Self {
        self.max_placeholders = p;
        self
    }

    /// Builder-style setter for the sample size.
    pub fn with_sample(mut self, size: usize, seed: u64) -> Self {
        self.sample_size = Some(size);
        self.sample_seed = seed;
        self
    }

    /// Builder-style setter for the support threshold.
    pub fn with_min_support(mut self, support: f64) -> Self {
        self.min_support = support;
        self
    }

    /// Builder-style setter for the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Whether a unit kind is enabled.
    pub fn kind_enabled(&self, kind: UnitKind) -> bool {
        kind == UnitKind::Literal || self.unit_kinds.contains(&kind)
    }

    /// Validates the configuration, panicking with a clear message on
    /// nonsensical values (used by the engine constructor).
    pub fn validate(&self) {
        assert!(self.max_placeholders >= 1, "max_placeholders must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.min_support),
            "min_support must be within [0, 1]"
        );
        assert!(self.max_skeletons_per_row >= 1);
        assert!(self.max_units_per_placeholder >= 1);
        assert!(self.max_transformations_per_row >= 1);
        if let Some(s) = self.sample_size {
            assert!(s >= 2, "sample_size must be at least 2 (see Section 5.3)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = SynthesisConfig::default();
        assert_eq!(c.max_placeholders, 3);
        assert_eq!(c.coverage_axis, CoverageAxis::Auto);
        assert!(c.deduplicate && c.unit_cache && c.resplit_placeholders);
        assert!(c.kind_enabled(UnitKind::Substr));
        assert!(c.kind_enabled(UnitKind::Split));
        assert!(c.kind_enabled(UnitKind::SplitSubstr));
        assert!(c.kind_enabled(UnitKind::Literal));
        assert!(!c.kind_enabled(UnitKind::TwoCharSplitSubstr));
        c.validate();
    }

    #[test]
    fn presets() {
        assert_eq!(SynthesisConfig::spreadsheet().max_placeholders, 4);
        let od = SynthesisConfig::open_data();
        assert_eq!(od.sample_size, Some(3000));
        assert!((od.min_support - 0.01).abs() < 1e-12);
        let ablate = SynthesisConfig::default().without_pruning();
        assert!(!ablate.deduplicate && !ablate.unit_cache);
    }

    #[test]
    fn builders() {
        let c = SynthesisConfig::default()
            .with_max_placeholders(2)
            .with_sample(100, 7)
            .with_min_support(0.05)
            .with_threads(0);
        assert_eq!(c.max_placeholders, 2);
        assert_eq!(c.sample_size, Some(100));
        assert_eq!(c.sample_seed, 7);
        assert_eq!(c.threads, 1); // clamped to at least one
        c.validate();
    }

    #[test]
    #[should_panic(expected = "max_placeholders")]
    fn invalid_placeholders_rejected() {
        SynthesisConfig::default().with_max_placeholders(0).validate();
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn invalid_support_rejected() {
        SynthesisConfig::default().with_min_support(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "sample_size")]
    fn invalid_sample_rejected() {
        SynthesisConfig::default().with_sample(1, 0).validate();
    }
}
