//! Differential suite for delta-aware incremental joinability: random
//! append schedules (generated by `tjoin_datasets::AppendWorkloadConfig`)
//! × {1, 2, 4} threads, each incremental path proven **bit-identical** to
//! its retained from-scratch oracle:
//!
//! * [`IncrementalCoverage`] grown over a schedule equals
//!   `compute_coverage` over the final candidate set, at every thread
//!   count (coverage is row-independent, so the delta extension cannot
//!   diverge — this gate enforces it).
//! * [`IncrementalJoin`] under a floor of 1.0: a re-synthesizing append
//!   yields exactly a fresh `JoinPipeline::run` over the grown pair; a
//!   kept append yields exactly `join_with_transformations` with the
//!   retained programs — and the maintained coverage state always matches
//!   the from-scratch oracle either way.

use proptest::prelude::*;
use tjoin_core::coverage::compute_coverage;
use tjoin_core::PairSet;
use tjoin_datasets::{AppendWorkloadConfig, RepositoryConfig};
use tjoin_join::{
    IncrementalCoverage, IncrementalJoin, IncrementalJoinConfig, JoinOutcome, JoinPipeline,
    JoinPipelineConfig, RowMatchingStrategy,
};
use tjoin_matching::golden_value_pairs;
use tjoin_text::NormalizeOptions;
use tjoin_units::Transformation;

fn golden_config(threads: usize) -> JoinPipelineConfig {
    JoinPipelineConfig {
        matching: RowMatchingStrategy::Golden,
        ..JoinPipelineConfig::default()
    }
    .with_threads(threads)
}

fn assert_outcomes_identical(a: &JoinOutcome, b: &JoinOutcome, context: &str) {
    assert_eq!(a.transformations, b.transformations, "{context}: transformations");
    assert_eq!(a.predicted_pairs, b.predicted_pairs, "{context}: predicted pairs");
    assert_eq!(a.metrics, b.metrics, "{context}: metrics");
    assert_eq!(a.candidate_pairs, b.candidate_pairs, "{context}: candidate count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Incremental coverage over a random append schedule equals the
    /// from-scratch scan of the final candidates at every thread count.
    #[test]
    fn incremental_coverage_equals_from_scratch_at_any_thread_count(
        seed in 0u64..1_000_000,
        appends in 1usize..5,
        rows_per_append in 1usize..6,
    ) {
        let workload = AppendWorkloadConfig {
            repository: RepositoryConfig::new(2, 12).with_decoys(0.0).with_noise(0.0),
            appends,
            rows_per_append,
        }
        .generate(seed);
        let hot = workload.steps[0].pair;
        let pair = &workload.base[hot];

        // Programs synthesized once over the base pair; the coverage state
        // then tracks them across the schedule.
        let outcome = JoinPipeline::new(golden_config(1)).run(pair);
        let transformations: Vec<Transformation> = outcome
            .transformations
            .transformations
            .iter()
            .map(|c| c.transformation.clone())
            .collect();
        prop_assert!(!transformations.is_empty(), "fixture must synthesize (seed {})", seed);

        let base_candidates = golden_value_pairs(pair);
        let mut final_candidates = base_candidates.clone();
        for threads in [1usize, 2, 4] {
            let mut incremental = IncrementalCoverage::new(
                transformations.clone(),
                &base_candidates,
                NormalizeOptions::default(),
                true,
                threads,
            );
            let mut total = base_candidates.clone();
            for step in workload.steps.iter().filter(|s| s.pair == hot) {
                incremental.append_rows(&step.rows);
                total.extend(step.rows.iter().map(|(s, t)| (s.as_str(), t.as_str())));
            }
            let oracle = compute_coverage(
                &transformations,
                &PairSet::from_strings(&total, &NormalizeOptions::default()),
                true,
                threads,
            );
            prop_assert_eq!(
                incremental.covered_rows(),
                &oracle.covered_rows[..],
                "coverage diverged at {} threads (seed {})",
                threads,
                seed
            );
            prop_assert_eq!(incremental.rows(), total.len());
            if threads == 1 {
                final_candidates = total;
            }
        }
        prop_assert!(final_candidates.len() > base_candidates.len());
    }

    /// The live join under a floor of 1.0: every append either re-applies
    /// the retained programs (delta fully covered) or re-synthesizes —
    /// and a re-synthesizing append is bit-identical to a fresh full run
    /// over the grown pair. The maintained coverage state matches the
    /// from-scratch oracle after every step.
    #[test]
    fn incremental_join_tracks_the_full_pipeline(
        seed in 0u64..1_000_000,
        appends in 1usize..4,
        threads_choice in 0usize..3,
        poison_step in 0usize..4,
    ) {
        let threads = [1usize, 2, 4][threads_choice];
        let workload = AppendWorkloadConfig {
            repository: RepositoryConfig::new(2, 10).with_decoys(0.0).with_noise(0.0),
            appends,
            rows_per_append: 3,
        }
        .generate(seed);
        let hot = workload.steps[0].pair;
        let mut join = IncrementalJoin::new(
            golden_config(threads),
            IncrementalJoinConfig { resynthesis_floor: 1.0 },
            workload.base[hot].clone(),
        );

        let steps: Vec<&tjoin_datasets::AppendStep> =
            workload.steps.iter().filter(|s| s.pair == hot).collect();
        for (i, step) in steps.iter().enumerate() {
            // One step (when the index lands in range) appends rows from a
            // foreign format family, forcing the uncovered path.
            let rows = if i == poison_step {
                vec![
                    ("2024-01-02".to_string(), "02/01/2024".to_string()),
                    ("2024-03-04".to_string(), "04/03/2024".to_string()),
                ]
            } else {
                step.rows.clone()
            };
            let report = join.append(&rows);

            if report.resynthesized {
                let fresh = JoinPipeline::new(golden_config(threads)).run(join.pair());
                assert_outcomes_identical(
                    join.outcome(),
                    &fresh,
                    &format!("resynthesis at step {i} (seed {seed}, {threads} threads)"),
                );
            } else {
                prop_assert_eq!(report.delta_quality, 1.0, "kept step {} must be covered", i);
            }

            // The coverage state always matches the from-scratch oracle
            // over the accumulated candidates.
            let candidates = golden_value_pairs(join.pair());
            let oracle = compute_coverage(
                join.coverage().transformations(),
                &PairSet::from_strings(&candidates, &NormalizeOptions::default()),
                true,
                threads,
            );
            prop_assert_eq!(
                join.coverage().covered_rows(),
                &oracle.covered_rows[..],
                "coverage state diverged at step {} (seed {})",
                i,
                seed
            );
        }
    }
}
