//! End-to-end differential oracle suite for the repository-scale matching
//! and join layer.
//!
//! Three production paths are proven bit-identical — same pairs, same order,
//! same metrics — to their retained oracles, across randomized column
//! pairs × both matching strategies:
//!
//! * the fused n-gram matcher vs
//!   `tjoin_matching::reference::find_candidates_reference`;
//! * the fingerprint equi-join vs
//!   `tjoin_join::reference::equi_join_reference`;
//! * the full pipeline at {2, 4} threads (and the batch runner over a
//!   generated repository at {1, 4}) vs its own single-threaded run.
//!
//! Generated pairs mix coverable format-family rows with empty values,
//! rows shorter than `n_min`, duplicated target values (many-to-many
//! fan-out), exact source==target copies, and non-coverable gibberish —
//! the shapes where coverage chunk boundaries, dedup order, or fingerprint
//! confirmation could silently diverge.
//!
//! The `#[ignore]`d test at the bottom is the slow repository-scale sweep,
//! run in CI via `cargo test -q -p tjoin-join -- --ignored`.

use proptest::prelude::*;
use tjoin_datasets::{ColumnPair, RepositoryConfig};
use tjoin_join::reference::equi_join_reference;
use tjoin_join::{BatchJoinRunner, JoinPipeline, JoinPipelineConfig, RowMatchingStrategy};
use tjoin_matching::reference::find_candidates_reference;
use tjoin_matching::{NGramMatcher, NGramMatcherConfig};
use tjoin_units::{Transformation, Unit};

/// One generated row: `(source_value, target_value)`. The `kind` selects a
/// row shape; the `seed` varies its content deterministically.
fn row_from(kind: u8, seed: u64) -> (String, String) {
    let a = seed % 50;
    let b = (seed / 50) % 37;
    match kind % 8 {
        // Coverable name-style rows (the matcher/join bread and butter).
        0 => (format!("last{a:02}, first{b:02}"), format!("f{b:02} last{a:02}")),
        // Coverable but with a shared promiscuous token on the target side.
        1 => (format!("name{a:02}, x{b:02}"), format!("x{b:02} name{a:02} common")),
        // Source row shorter than the default n_min = 4.
        2 => ("ab".into(), format!("f{b:02} last{a:02}")),
        // Empty source value.
        3 => (String::new(), format!("t{a:02}")),
        // Empty target value.
        4 => (format!("last{a:02}, first{b:02}"), String::new()),
        // Duplicate-prone target: one of four canned values, so several
        // rows share it (many-to-many fan-out).
        5 => (format!("dup{:02}, val", seed % 4), format!("dup{:02}", seed % 4)),
        // Non-coverable gibberish on the target side.
        6 => (format!("last{a:02}, first{b:02}"), format!("zz-{:04}-qq", seed % 10_000)),
        // Exact copy: source == target.
        _ => (format!("same value {a:02}"), format!("same value {a:02}")),
    }
}

fn build_pair(specs: &[(u8, u64)]) -> ColumnPair {
    let mut source = Vec::with_capacity(specs.len());
    let mut target = Vec::with_capacity(specs.len());
    for &(kind, seed) in specs {
        let (s, t) = row_from(kind, seed);
        source.push(s);
        target.push(t);
    }
    ColumnPair::aligned("proptest", source, target)
}

/// A small transformation vocabulary for the equi-join legs, including
/// programs that never apply and programs with overlapping outputs (the
/// cross-transformation dedup paths).
fn join_transformations() -> Vec<Transformation> {
    vec![
        Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]),
        Transformation::new(vec![Unit::split(',', 0)]),
        Transformation::new(vec![Unit::substr(0, 6)]),
        Transformation::new(vec![Unit::substr(0, 1), Unit::literal(" "), Unit::split(',', 0)]),
        Transformation::new(vec![Unit::split('-', 2)]),
        Transformation::new(vec![Unit::literal("f"), Unit::split_substr(' ', 1, 1, 3)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused matcher is bit-identical to the retained size-major
    /// oracle.
    #[test]
    fn matcher_matches_reference(
        specs in prop::collection::vec((0u8..8, 0u64..1_000_000), 0..24),
    ) {
        let pair = build_pair(&specs);
        let config = NGramMatcherConfig::default();
        let found = NGramMatcher::new(config.clone())
            .try_find_candidates(&pair, None, None)
            .unwrap();
        prop_assert_eq!(found, find_candidates_reference(&config, &pair));
    }

    /// The fingerprint equi-join is bit-identical to the retained
    /// owned-string-keyed oracle.
    #[test]
    fn fingerprint_equi_join_matches_reference(
        specs in prop::collection::vec((0u8..8, 0u64..1_000_000), 0..32),
    ) {
        let pair = build_pair(&specs);
        let transformations = join_transformations();
        let refs: Vec<&Transformation> = transformations.iter().collect();
        let base = JoinPipelineConfig::paper_default();
        let oracle = equi_join_reference(&pair, refs.iter().copied(), &base.synthesis.normalize);
        let predicted = JoinPipeline::new(base).equi_join(&pair, refs.iter().copied());
        prop_assert_eq!(predicted, oracle);
    }

    /// The full pipeline — matching, synthesis, support filtering,
    /// fingerprint join, metrics — is thread-invariant under both matching
    /// strategies, and its predicted pairs equal the reference equi-join of
    /// its own discovered transformation set.
    #[test]
    fn pipeline_thread_invariant_under_both_strategies(
        specs in prop::collection::vec((0u8..8, 0u64..1_000_000), 1..12),
    ) {
        let pair = build_pair(&specs);
        for matching in [
            RowMatchingStrategy::NGram(NGramMatcherConfig::default()),
            RowMatchingStrategy::Golden,
        ] {
            let base = JoinPipelineConfig {
                matching: matching.clone(),
                ..JoinPipelineConfig::paper_default()
            };
            let baseline = JoinPipeline::new(base.clone()).run(&pair);
            let oracle_join = equi_join_reference(
                &pair,
                baseline.transformations.iter().map(|t| &t.transformation),
                &base.synthesis.normalize,
            );
            prop_assert_eq!(&baseline.predicted_pairs, &oracle_join);
            for threads in [2usize, 4] {
                let outcome = JoinPipeline::new(base.clone().with_threads(threads)).run(&pair);
                prop_assert_eq!(
                    &outcome.predicted_pairs, &baseline.predicted_pairs,
                    "pipeline pairs diverged at {} threads", threads
                );
                prop_assert_eq!(outcome.metrics, baseline.metrics);
                prop_assert_eq!(outcome.candidate_pairs, baseline.candidate_pairs);
            }
        }
    }
}

/// The slow repository-scale sweep (the CI `--ignored` slot): a generated
/// heterogeneous repository driven by the batch runner at {1, 4} threads
/// must reproduce, pair for pair, the per-pair pipeline's outcomes and the
/// two serial oracles.
#[test]
#[ignore]
fn large_repository_batch_sweep_matches_oracles() {
    let repository = RepositoryConfig::new(10, 150).generate(42);
    let config = JoinPipelineConfig::paper_default();

    let baseline = BatchJoinRunner::new(config.clone(), 1).run(&repository);
    let parallel = BatchJoinRunner::new(config.clone(), 4).run(&repository);
    assert_eq!(baseline.reports.len(), repository.len());

    for ((pair, serial), threaded) in repository
        .iter()
        .zip(&baseline.reports)
        .zip(&parallel.reports)
    {
        assert_eq!(serial.name, pair.name);
        assert_eq!(
            serial.outcome.predicted_pairs, threaded.outcome.predicted_pairs,
            "batch diverged across thread budgets on {}",
            pair.name
        );
        assert_eq!(serial.outcome.metrics, threaded.outcome.metrics);

        // Per-pair pipeline reproduces the batch outcome exactly.
        let solo = JoinPipeline::new(config.clone()).run(pair);
        assert_eq!(solo.predicted_pairs, serial.outcome.predicted_pairs, "{}", pair.name);
        assert_eq!(solo.metrics, serial.outcome.metrics);

        // Matcher oracle on the raw pair.
        let matcher_config = NGramMatcherConfig::default();
        let found = NGramMatcher::new(matcher_config.clone())
            .try_find_candidates(pair, None, None)
            .unwrap();
        assert_eq!(
            found,
            find_candidates_reference(&matcher_config, pair),
            "matcher diverged on {}",
            pair.name
        );

        // Equi-join oracle over the discovered transformation set.
        let oracle_join = equi_join_reference(
            pair,
            solo.transformations.iter().map(|t| &t.transformation),
            &config.synthesis.normalize,
        );
        assert_eq!(solo.predicted_pairs, oracle_join, "join diverged on {}", pair.name);
    }
    assert_eq!(baseline.metrics.micro, parallel.metrics.micro);
    assert!(
        baseline.metrics.joined_pairs >= 6,
        "repository unexpectedly unjoinable: {:?}",
        baseline.metrics
    );
}
