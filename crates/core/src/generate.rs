//! Candidate transformation generation and duplicate removal (Sections 4.1.4
//! and 4.1.5 of the paper).
//!
//! For each row, every skeleton is expanded into the Cartesian product of the
//! candidate unit sets of its placeholders (literal segments contribute a
//! single `Literal` unit each). The same transformation is typically
//! generated by many rows; a global hash set removes those duplicates before
//! the expensive coverage phase — the paper reports roughly half of all
//! generated transformations being duplicates on its real datasets (Table 4).
//!
//! Candidates are emitted as [`IdTransformation`]s — small `u32` vectors
//! over the [`UnitPool`] that interns every distinct unit once — so the
//! Cartesian product copies ids instead of cloning units, duplicate removal
//! hashes id vectors instead of unit vectors with embedded strings, and the
//! coverage phase can memoize per-unit work by id (see
//! [`crate::coverage`]).

use crate::config::SynthesisConfig;
use crate::pair::PairSet;
use crate::placeholder::maximal_placeholders;
use crate::skeleton::{enumerate_skeletons, Segment};
use crate::unitgen::candidate_unit_ids;
use std::time::{Duration, Instant};
use tjoin_text::FxHashSet;
use tjoin_units::{IdTransformation, UnitId, UnitPool};

/// Output of the generation phase.
#[derive(Debug, Clone)]
pub struct GenerationOutcome {
    /// The arena interning every distinct unit of the candidates.
    pub pool: UnitPool,
    /// The transformations to evaluate (deduplicated when
    /// `config.deduplicate` is on, raw otherwise), as id vectors over
    /// [`Self::pool`].
    pub transformations: Vec<IdTransformation>,
    /// Total number of candidate transformations generated across all rows
    /// (before duplicate removal) — the "Generated trans." column of Table 4.
    pub generated: u64,
    /// Number of distinct transformations — the "Trans. to try" column.
    pub unique: u64,
    /// Wall-clock time spent detecting placeholders and enumerating skeletons.
    pub placeholder_time: Duration,
    /// Wall-clock time spent extracting candidate units per placeholder.
    pub unit_extraction_time: Duration,
    /// Wall-clock time spent expanding Cartesian products and removing
    /// duplicates.
    pub generation_dedup_time: Duration,
}

impl GenerationOutcome {
    /// Iterates over all candidates as owned transformations (the hot path
    /// stays on ids).
    #[cfg(test)]
    pub(crate) fn resolved(&self) -> impl Iterator<Item = tjoin_units::Transformation> + '_ {
        self.transformations.iter().map(|t| self.pool.resolve(t))
    }
}

/// Generates the candidate transformations for every pair in `pairs`.
pub fn generate_transformations(pairs: &PairSet, config: &SynthesisConfig) -> GenerationOutcome {
    let mut pool = UnitPool::new();
    let mut dedup: FxHashSet<IdTransformation> = FxHashSet::default();
    let mut all: Vec<IdTransformation> = Vec::new();
    let mut generated: u64 = 0;
    let mut placeholder_time = Duration::ZERO;
    let mut unit_extraction_time = Duration::ZERO;
    let mut generation_dedup_time = Duration::ZERO;

    for row in 0..pairs.len() {
        let source = pairs.source(row);
        let target = pairs.target(row);
        if target.is_empty() {
            continue;
        }

        let t0 = Instant::now();
        let placeholders = maximal_placeholders(source, target);
        let skeletons = enumerate_skeletons(source, target, &placeholders, config);
        placeholder_time += t0.elapsed();

        let mut row_generated: u64 = 0;
        for skeleton in &skeletons {
            if row_generated >= config.max_transformations_per_row as u64 {
                break;
            }
            // Candidate unit-id lists per segment.
            let t1 = Instant::now();
            let candidate_lists: Vec<Vec<UnitId>> = skeleton
                .segments
                .iter()
                .map(|seg| match seg {
                    Segment::Placeholder(p) => candidate_unit_ids(p, source, config, &mut pool),
                    Segment::Literal(text) => {
                        vec![pool.intern(tjoin_units::Unit::literal(text.clone()))]
                    }
                })
                .collect();
            unit_extraction_time += t1.elapsed();
            if candidate_lists.iter().any(Vec::is_empty) {
                continue;
            }

            // Cartesian product, bounded by the per-row budget.
            let t2 = Instant::now();
            let mut indices = vec![0usize; candidate_lists.len()];
            loop {
                // Build the unit-id sequence, merging adjacent literals so
                // that equivalent programs generated by different rows hash
                // to the same transformation (duplicate removal works on
                // canonical forms). Literal merges are interned once and
                // memoized by the pool.
                let mut units: Vec<UnitId> = Vec::with_capacity(candidate_lists.len());
                for (&i, list) in indices.iter().zip(&candidate_lists) {
                    let unit = list[i];
                    match units.last_mut() {
                        Some(prev) if pool.is_literal(*prev) && pool.is_literal(unit) => {
                            *prev = pool.concat_literals(*prev, unit);
                        }
                        _ => units.push(unit),
                    }
                }
                let transformation = IdTransformation::new(units);
                generated += 1;
                row_generated += 1;
                if config.deduplicate {
                    if dedup.insert(transformation.clone()) {
                        all.push(transformation);
                    }
                } else {
                    all.push(transformation);
                }
                if row_generated >= config.max_transformations_per_row as u64 {
                    break;
                }
                // Advance the mixed-radix counter: bump the rightmost index
                // that can still advance and reset every index after it;
                // the product is exhausted when none can.
                let Some(pos) = (0..indices.len())
                    .rev()
                    .find(|&pos| indices[pos] + 1 < candidate_lists[pos].len())
                else {
                    break;
                };
                indices[pos] += 1;
                indices[pos + 1..].fill(0);
            }
            generation_dedup_time += t2.elapsed();
        }
    }

    // With deduplication the distinct programs are the ones to evaluate;
    // without it (the ablation setting) every generated copy is evaluated, so
    // "transformations to try" equals the generated count.
    let unique = if config.deduplicate {
        dedup.len() as u64
    } else {
        all.len() as u64
    };

    GenerationOutcome {
        pool,
        transformations: all,
        generated,
        unique,
        placeholder_time,
        unit_extraction_time,
        generation_dedup_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_text::NormalizeOptions;
    use tjoin_units::Transformation;

    fn pairs(rows: &[(&str, &str)]) -> PairSet {
        PairSet::from_strings(rows, &NormalizeOptions::none())
    }

    #[test]
    fn generates_a_covering_candidate_for_simple_rows() {
        let set = pairs(&[("gosgnach, simon", "s gosgnach")]);
        let out = generate_transformations(&set, &SynthesisConfig::default());
        assert!(out.generated >= out.unique);
        assert!(out.unique > 0);
        // At least one generated transformation must cover the row.
        let covering = out
            .resolved()
            .any(|t| t.apply("gosgnach, simon").as_deref() == Some("s gosgnach"));
        assert!(covering, "no covering transformation generated");
    }

    #[test]
    fn duplicates_removed_across_rows() {
        // Two rows following the same format produce overlapping candidates.
        let set = pairs(&[
            ("bowling, michael", "m bowling"),
            ("gosgnach, simon", "s gosgnach"),
        ]);
        let with_dedup = generate_transformations(&set, &SynthesisConfig::default());
        let without = generate_transformations(
            &set,
            &SynthesisConfig {
                deduplicate: false,
                ..SynthesisConfig::default()
            },
        );
        assert_eq!(with_dedup.generated, without.generated);
        assert!(with_dedup.transformations.len() <= without.transformations.len());
        // Without deduplication everything generated is evaluated.
        assert_eq!(without.unique, without.generated);
        assert!(with_dedup.unique <= without.unique);
        assert_eq!(
            with_dedup.transformations.len() as u64,
            with_dedup.unique
        );
    }

    #[test]
    fn dedup_on_ids_equals_dedup_on_resolved_transformations() {
        // Interning must be injective: distinct id vectors resolve to
        // distinct unit sequences, so id-level dedup equals unit-level dedup.
        let set = pairs(&[
            ("bowling, michael", "m bowling"),
            ("gosgnach, simon", "s gosgnach"),
        ]);
        let out = generate_transformations(&set, &SynthesisConfig::default());
        let resolved: Vec<Transformation> = out.resolved().collect();
        let distinct: FxHashSet<&Transformation> = resolved.iter().collect();
        assert_eq!(distinct.len(), resolved.len());
        assert_eq!(resolved.len() as u64, out.unique);
    }

    #[test]
    fn per_row_budget_respected() {
        let config = SynthesisConfig {
            max_transformations_per_row: 10,
            ..SynthesisConfig::default()
        };
        let set = pairs(&[("abcabcabcabc abc", "abc abc")]);
        let out = generate_transformations(&set, &config);
        assert!(out.generated <= 10);
    }

    #[test]
    fn empty_targets_skipped() {
        let set = pairs(&[("abc", "")]);
        let out = generate_transformations(&set, &SynthesisConfig::default());
        assert_eq!(out.generated, 0);
        assert!(out.transformations.is_empty());
        assert!(out.pool.is_empty());
    }

    #[test]
    fn all_generated_transformations_cover_their_originating_row_shape() {
        // Generated candidates must at least produce the right target when
        // applied to the row they came from (they are built from its skeleton).
        let row = ("prus-czarnecki, andrzej", "a prus-czarnecki");
        let set = pairs(&[row]);
        let out = generate_transformations(&set, &SynthesisConfig::default());
        let mut covering = 0usize;
        for t in out.resolved() {
            if t.apply(row.0).as_deref() == Some(row.1) {
                covering += 1;
            }
        }
        assert!(
            covering > 0,
            "expected at least one candidate to cover its own row"
        );
    }

    #[test]
    fn timings_are_recorded() {
        let set = pairs(&[("bowling, michael", "m bowling")]);
        let out = generate_transformations(&set, &SynthesisConfig::default());
        // Durations are monotone counters; at minimum they must not panic and
        // the phases must have been entered.
        assert!(out.placeholder_time >= Duration::ZERO);
        assert!(out.unit_extraction_time >= Duration::ZERO);
        assert!(out.generation_dedup_time >= Duration::ZERO);
    }
}
