//! The synthesis engine hands greedy one candidate per distinct covered
//! row set. On a generated repository, its cover must equal lazy greedy's
//! over every survivor of the support and all-literal filters, and the
//! test records how many survivors collapse into how few sets.
//!
//! The test is `#[ignore]`d: it runs n-gram matching and synthesis on a
//! 12 × 80 repository, so it belongs to the release leg,
//! `cargo test -q -p tjoin-join --release -- --ignored` (add
//! `--nocapture` to see the counts).

use tjoin_core::cover::{lazy_greedy_cover_budgeted, min_rows_for_support, ScoredTransformation};
use tjoin_core::coverage::compute_coverage_planned_budgeted;
use tjoin_core::generate::generate_transformations;
use tjoin_core::{PairSet, RowBitmap, SynthesisEngine};
use tjoin_datasets::RepositoryConfig;
use tjoin_join::JoinPipelineConfig;
use tjoin_text::FxHashSet;

#[test]
#[ignore = "repository-scale synthesis; run with --release -- --ignored"]
fn engine_cover_equals_greedy_over_all_survivors() {
    let repository = RepositoryConfig::new(12, 80).generate(7000);
    let config = JoinPipelineConfig::paper_default();
    let synthesis = &config.synthesis;
    assert_eq!(synthesis.sample_size, None, "the survivors below assume no sampling");
    let (mut survivors_total, mut distinct_total) = (0usize, 0usize);

    for pair in &repository {
        let rows = config
            .matching
            .candidates(pair, None, None)
            .expect("generated pairs never fail matching");
        let pairs = PairSet::from_strings(&pair.row_values(&rows), &synthesis.normalize);
        let rows = pairs.len();

        let generation = generate_transformations(&pairs, synthesis);
        let coverage = compute_coverage_planned_budgeted(
            &generation.pool,
            &generation.transformations,
            &pairs,
            synthesis.unit_cache,
            synthesis.threads,
            synthesis.coverage_axis,
            None,
        )
        .expect("no budget");
        let min_rows = min_rows_for_support(rows, synthesis.min_support);
        let survivors: Vec<(&[u32], ScoredTransformation)> = generation
            .transformations
            .iter()
            .zip(&coverage.covered_rows)
            .filter(|(t, covered)| {
                covered.len() >= min_rows
                    && !(covered.len() <= 1 && t.is_all_literal(&generation.pool))
            })
            .map(|(t, covered)| {
                let scored = ScoredTransformation {
                    transformation: generation.pool.resolve(t),
                    covered: RowBitmap::from_sorted_rows(rows, covered),
                };
                (covered.as_slice(), scored)
            })
            .collect();
        let distinct: FxHashSet<&[u32]> = survivors.iter().map(|(covered, _)| *covered).collect();
        survivors_total += survivors.len();
        distinct_total += distinct.len();

        let all = survivors.into_iter().map(|(_, scored)| scored).collect();
        let uncollapsed = lazy_greedy_cover_budgeted(all, rows, None).expect("no budget");
        let engine = SynthesisEngine::new(synthesis.clone()).discover(&pairs);
        assert_eq!(engine.cover, uncollapsed, "covers diverged on {}", pair.name);
    }

    println!(
        "{survivors_total} survivors, {distinct_total} distinct covered sets ({:.1}x)",
        survivors_total as f64 / distinct_total as f64
    );
    assert!(
        distinct_total * 10 < survivors_total,
        "expected the collapse to drop at least 90 % of {survivors_total} survivors, \
         kept {distinct_total}"
    );
}
