//! Property-based integration tests over the synthesis engine and the join
//! pipeline: invariants that must hold for *any* input, not only the curated
//! examples.

use proptest::prelude::*;
use tabjoin::prelude::*;
use tabjoin::synthesis::coverage::reference::compute_coverage_reference;
use std::time::Duration;
use tabjoin::synthesis::coverage::{compute_coverage, CoverageOutcome};
use tabjoin::synthesis::pair::PairSet;
use tabjoin::text::NormalizeOptions;

/// Strategy for small sets of (source, target) pairs where the target is
/// derived from the source by one of a few format rules, optionally with a
/// noise row appended.
fn formatted_rows() -> impl Strategy<Value = Vec<(String, String)>> {
    let word = || proptest::string::string_regex("[a-z]{3,8}").unwrap();
    let row = (word(), word(), 0u8..3).prop_map(|(a, b, rule)| {
        let source = format!("{b}, {a}");
        let target = match rule {
            0 => format!("{} {b}", &a[..1]),
            1 => format!("{a}.{b}@x.ca"),
            _ => b.to_string(),
        };
        (source, target)
    });
    prop::collection::vec(row, 2..8)
}

/// Strategy for arbitrary units over realistic delimiters and positions.
fn any_unit() -> impl Strategy<Value = Unit> {
    let pos = || 0usize..12;
    let delim = || prop_oneof![Just(','), Just(';'), Just(' '), Just('-'), Just('@')];
    prop_oneof![
        (pos(), pos()).prop_map(|(a, b)| Unit::substr(a.min(b), a.max(b))),
        (delim(), 0usize..4).prop_map(|(d, i)| Unit::split(d, i)),
        (delim(), 0usize..4, pos(), pos())
            .prop_map(|(d, i, a, b)| Unit::split_substr(d, i, a.min(b), a.max(b))),
        "[a-z@. ]{0,4}".prop_map(Unit::literal),
    ]
}

/// Strategy for a random unit pool plus transformations drawn as sequences
/// over that pool — the Cartesian-product shape the coverage cache exploits
/// (shared units recur across many transformations).
fn pooled_transformations() -> impl Strategy<Value = Vec<Transformation>> {
    (prop::collection::vec(any_unit(), 2..7), 0usize..400).prop_map(|(pool, picks)| {
        // Derive up to ~40 transformations deterministically from `picks` by
        // walking index combinations over the pool.
        let n = pool.len();
        (0..(picks % 40) + 1)
            .map(|t| {
                let len = t % 3 + 1;
                Transformation::new(
                    (0..len)
                        .map(|j| pool[(t * 7 + j * 3 + picks) % n].clone())
                        .collect(),
                )
            })
            .collect()
    })
}

/// Strategy for small row sets of short strings with realistic delimiters.
fn random_rows() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(
        ("[a-z,;@ -]{0,14}", "[a-z,;@ -]{0,10}"),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every row the engine reports as covered by a transformation really is
    /// covered (re-applying the transformation reproduces the target), and
    /// coverage statistics are internally consistent.
    #[test]
    fn reported_coverage_is_sound(rows in formatted_rows()) {
        let engine = SynthesisEngine::new(SynthesisConfig::default());
        let result = engine.discover_from_strings(&rows);
        let normalized: Vec<(String, String)> = rows
            .iter()
            .map(|(s, t)| (s.to_lowercase(), t.to_lowercase()))
            .collect();
        for covered in result.cover.iter() {
            for &row in &covered.covered_rows {
                let (src, tgt) = &normalized[row as usize];
                let output = covered.transformation.apply(src);
                prop_assert_eq!(
                    output.as_deref(),
                    Some(tgt.as_str()),
                    "transformation {} does not cover row {}",
                    covered.transformation,
                    row
                );
            }
        }
        prop_assert!(result.set_coverage() >= result.top_coverage() - 1e-9);
        prop_assert!(result.top_coverage() >= 0.0 && result.set_coverage() <= 1.0);
        let s = &result.stats;
        prop_assert!(s.generated_transformations >= s.transformations_to_try);
        prop_assert!(s.coverage_trials + s.cache_hits <= s.potential_trials);
    }

    /// Pruning (duplicate removal + unit cache) never changes coverage.
    #[test]
    fn pruning_is_lossless(rows in formatted_rows()) {
        let pruned = SynthesisEngine::new(SynthesisConfig::default())
            .discover_from_strings(&rows);
        let unpruned = SynthesisEngine::new(SynthesisConfig::default().without_pruning())
            .discover_from_strings(&rows);
        prop_assert!((pruned.set_coverage() - unpruned.set_coverage()).abs() < 1e-9);
        prop_assert!((pruned.top_coverage() - unpruned.top_coverage()).abs() < 1e-9);
    }

    /// Join metrics are proper: bounded by [0, 1], and perfect exactly when
    /// predicted pairs equal golden pairs.
    #[test]
    fn join_metrics_are_bounded(rows in formatted_rows()) {
        let pair = ColumnPair::aligned(
            "prop",
            rows.iter().map(|(s, _)| s.clone()).collect(),
            rows.iter().map(|(_, t)| t.clone()).collect(),
        );
        let pipeline = JoinPipeline::new(JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            join_min_support: 0.0,
            ..JoinPipelineConfig::paper_default()
        });
        let outcome = pipeline.run(&pair);
        let m = outcome.metrics;
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
        prop_assert!(m.true_positives <= m.predicted && m.true_positives <= m.golden);
    }

    /// The greedy covering set never contains a transformation whose covered
    /// rows are all covered by the transformations selected before it
    /// (no useless selections).
    #[test]
    fn cover_has_no_useless_members(rows in formatted_rows()) {
        let result = SynthesisEngine::new(SynthesisConfig::default())
            .discover_from_strings(&rows);
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for t in result.cover.iter() {
            let adds_new = t.covered_rows.iter().any(|r| !seen.contains(r));
            prop_assert!(adds_new, "useless member {}", t.transformation);
            seen.extend(t.covered_rows.iter().copied());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The interned coverage engine (unit pool + per-row memoization +
    /// bitset cache + sparse coverage) returns byte-identical covered rows
    /// and trial/cache-hit counts to the retained naive reference
    /// implementation — across random unit pools and row sets, with and
    /// without the cache — and its whole outcome (apply time aside) is the
    /// same at 4 threads as at 1.
    #[test]
    fn interned_coverage_matches_reference(
        ts in pooled_transformations(),
        rows in random_rows(),
        use_cache in prop_oneof![Just(true), Just(false)],
    ) {
        let set = PairSet::from_strings(&rows, &NormalizeOptions::none());
        let reference = compute_coverage_reference(&ts, &set, use_cache);
        let serial = compute_coverage(&ts, &set, use_cache, 1);
        prop_assert_eq!(&serial.covered_rows, &reference.covered_rows,
            "covered rows diverged (cache={})", use_cache);
        prop_assert_eq!(serial.trials, reference.trials, "trials diverged (cache={})", use_cache);
        prop_assert_eq!(serial.cache_hits, reference.cache_hits,
            "cache hits diverged (cache={})", use_cache);
        prop_assert_eq!(serial.potential_trials, reference.potential_trials);
        let parallel = compute_coverage(&ts, &set, use_cache, 4);
        prop_assert_eq!(
            CoverageOutcome { apply_time: Duration::ZERO, ..parallel },
            CoverageOutcome { apply_time: Duration::ZERO, ..serial.clone() },
            "4-thread outcome diverged from serial (cache={})", use_cache
        );

        // Memoization bound: each (row, unit) pair is evaluated at most
        // once, so evaluations never exceed rows x distinct units.
        let distinct_units: std::collections::HashSet<&Unit> =
            ts.iter().flat_map(|t| t.units()).collect();
        prop_assert!(
            serial.unit_evaluations <= (set.len() * distinct_units.len()) as u64,
            "memo bound violated: {} evaluations for {} rows x {} units",
            serial.unit_evaluations, set.len(), distinct_units.len()
        );
    }
}
