//! Synthesis statistics and per-phase timings.
//!
//! These are the quantities the paper reports in Table 4 (generated
//! transformations, transformations to try, duplicate ratio, cache hit ratio)
//! and Figures 3–4 (per-module time: placeholder generation, unit extraction,
//! duplicate removal, applying transformations).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Wall-clock time per synthesis phase (the modules of Figure 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Placeholder detection + skeleton enumeration ("Placeholder Gen.").
    pub placeholder_generation: Duration,
    /// Candidate unit extraction per placeholder ("Unit Extraction").
    pub unit_extraction: Duration,
    /// Cartesian-product expansion and duplicate removal ("Duplicate Removal").
    pub duplicate_removal: Duration,
    /// Applying transformations to all rows ("Applying Trans.").
    pub applying_transformations: Duration,
    /// Selection: support filter, densify and greedy cover (not plotted).
    pub cover_selection: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.placeholder_generation
            + self.unit_extraction
            + self.duplicate_removal
            + self.applying_transformations
            + self.cover_selection
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placeholder {:.3}s, units {:.3}s, dedup {:.3}s, apply {:.3}s, cover {:.3}s",
            self.placeholder_generation.as_secs_f64(),
            self.unit_extraction.as_secs_f64(),
            self.duplicate_removal.as_secs_f64(),
            self.applying_transformations.as_secs_f64(),
            self.cover_selection.as_secs_f64(),
        )
    }
}

/// Statistics of one synthesis run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SynthesisStats {
    /// Number of input pairs provided by the caller.
    pub pairs_total: usize,
    /// Number of pairs synthesis actually ran on (after sampling).
    pub pairs_used: usize,
    /// Candidate transformations generated across all rows (before duplicate
    /// removal) — Table 4 "Generated trans.".
    pub generated_transformations: u64,
    /// Distinct transformations evaluated — Table 4 "Trans. to try".
    pub transformations_to_try: u64,
    /// (transformation, row) applications attempted in the coverage phase.
    pub coverage_trials: u64,
    /// (transformation, row) combinations skipped by the unit cache.
    pub cache_hits: u64,
    /// `transformations_to_try × pairs_used`.
    pub potential_trials: u64,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

impl SynthesisStats {
    /// Fraction of generated transformations removed as duplicates —
    /// Table 4 "Duplicate trans.".
    pub fn duplicate_ratio(&self) -> f64 {
        if self.generated_transformations == 0 {
            0.0
        } else {
            1.0 - self.transformations_to_try as f64 / self.generated_transformations as f64
        }
    }

    /// Fraction of potential trials avoided by the unit cache — Table 4
    /// "Cache hit ratio".
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.potential_trials == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.potential_trials as f64
        }
    }
}

impl fmt::Display for SynthesisStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pairs: {} used of {} | generated: {} | to try: {} ({:.1}% duplicates)",
            self.pairs_used,
            self.pairs_total,
            self.generated_transformations,
            self.transformations_to_try,
            100.0 * self.duplicate_ratio()
        )?;
        writeln!(
            f,
            "trials: {} of {} potential ({:.1}% cache hits)",
            self.coverage_trials,
            self.potential_trials,
            100.0 * self.cache_hit_ratio()
        )?;
        write!(f, "timings: {}", self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = SynthesisStats::default();
        assert_eq!(s.duplicate_ratio(), 0.0);
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.timings.total(), Duration::ZERO);
    }

    #[test]
    fn ratios_computed() {
        let s = SynthesisStats {
            generated_transformations: 100,
            transformations_to_try: 40,
            cache_hits: 30,
            potential_trials: 120,
            ..Default::default()
        };
        assert!((s.duplicate_ratio() - 0.6).abs() < 1e-12);
        assert!((s.cache_hit_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn timings_total() {
        let a = PhaseTimings {
            placeholder_generation: Duration::from_millis(10),
            unit_extraction: Duration::from_millis(20),
            duplicate_removal: Duration::from_millis(30),
            applying_transformations: Duration::from_millis(40),
            cover_selection: Duration::from_millis(5),
        };
        assert_eq!(a.total(), Duration::from_millis(105));
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = SynthesisStats {
            pairs_total: 10,
            pairs_used: 10,
            generated_transformations: 100,
            transformations_to_try: 50,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("generated: 100"));
        assert!(text.contains("50.0% duplicates"));
        let t = PhaseTimings::default().to_string();
        assert!(t.contains("apply"));
    }
}
