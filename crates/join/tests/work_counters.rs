//! Deterministic work counters for the two subsystems that exist to skip
//! work: signature discovery and incremental join maintenance. Each test
//! first pins the subsystem's results to its from-scratch oracle, then
//! gates the work it saves on counters, not wall-clock, so the verdict is
//! the same on every machine and at every thread count.
//!
//! * **Discovery** on a decoy-dominated 60-pair repository: the shortlist
//!   prunes at least 80 % of the pairs with recall 1.0 against the
//!   all-pairs pipeline, and `discover_and_run` builds a target n-gram
//!   index only for the pairs it runs.
//! * **Incremental maintenance** on one large pair absorbing eight small
//!   same-family appends: the coverage work of the incremental path
//!   (retained transformations × delta rows) against a rebuild per append
//!   (the coverage trials `SynthesisEngine` runs on the grown pair).
//!
//! A third test pins the coverage phase itself on the first `repo_batch`
//! repository: its Table 4 counters (trials and cache hits), its unit
//! evaluations and every pair's cover. It is `#[ignore]`d, so it runs in
//! the release leg, `cargo test -q -p tjoin-join --release -- --ignored`.

use tjoin_core::coverage::compute_coverage_planned_budgeted;
use tjoin_core::generate::generate_transformations;
use tjoin_core::{PairSet, SynthesisEngine};
use tjoin_datasets::{AppendWorkloadConfig, RepositoryConfig};
use tjoin_join::{
    BatchJoinOutcome, BatchJoinRunner, DiscoveryConfig, IncrementalJoin, IncrementalJoinConfig,
    JoinPipeline, JoinPipelineConfig, RowMatchingStrategy,
};
use tjoin_matching::golden_value_pairs;
use tjoin_units::TransformationSet;

/// Results-only outcome comparison (timings and scheduling counters are
/// measurements, not results).
fn assert_outcomes_identical(a: &BatchJoinOutcome, b: &BatchJoinOutcome, context: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{context}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.name, rb.name, "{context}: report order");
        assert_eq!(ra.status, rb.status, "{context}: status of {}", ra.name);
        assert_eq!(
            ra.outcome.predicted_pairs, rb.outcome.predicted_pairs,
            "{context}: predicted pairs of {}",
            ra.name
        );
        assert_eq!(
            ra.outcome.metrics, rb.outcome.metrics,
            "{context}: metrics of {}",
            ra.name
        );
    }
    assert_eq!(a.metrics.micro, b.metrics.micro, "{context}: micro metrics");
    assert_eq!(
        a.metrics.macro_f1, b.metrics.macro_f1,
        "{context}: macro F1"
    );
}

fn target_indexes_built(outcome: &BatchJoinOutcome) -> usize {
    outcome
        .scheduler
        .corpus
        .as_ref()
        .expect("n-gram runs report corpus stats")
        .indexes_built
}

/// 60 pairs = 120 distinct columns, 95 % decoys: the repository-scale
/// regime where almost every candidate pair is not joinable. Rows per
/// column are sized so accidental single-gram collisions between unrelated
/// columns stay rare enough for the 0.8 pruning floor.
#[test]
fn discovery_prunes_with_full_recall_and_skips_pruned_target_indexes() {
    let repository = RepositoryConfig::new(60, 80).with_decoys(0.95).generate(23);
    assert!(
        repository.len() * 2 >= 100,
        "the repository must span at least 100 tables"
    );
    // The runner has no resident corpus, so each run builds and counts its
    // own target indexes.
    let runner = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 2);
    let discovery = DiscoveryConfig::paper_default().with_threads(2);

    let all_pairs = runner.run(&repository);
    let discovered = runner.discover_and_run(&repository, &discovery);
    let shortlist = &discovered.shortlist;
    let retained: Vec<usize> = shortlist.ranked.iter().map(|entry| entry.index).collect();

    // Recall 1.0 against the all-pairs pipeline oracle.
    let pipeline_joinable: Vec<usize> = all_pairs
        .reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.outcome.predicted_pairs.is_empty())
        .map(|(i, _)| i)
        .collect();
    assert!(!pipeline_joinable.is_empty(), "the recall gate must bite");
    for index in &pipeline_joinable {
        assert!(
            retained.contains(index),
            "pipeline-joinable pair {} pruned from the shortlist",
            repository[*index].name
        );
    }

    // At least 80 % of the pair space is pruned.
    assert_eq!(shortlist.considered, repository.len());
    assert_eq!(shortlist.pruned.len() + retained.len(), repository.len());
    let pruning_ratio = shortlist.pruned.len() as f64 / shortlist.considered as f64;
    assert!(
        pruning_ratio >= 0.8,
        "shortlist pruned only {pruning_ratio:.3} of the pair space"
    );

    // The discovered outcome is the plain runner over the shortlist.
    let sublist: Vec<_> = retained.iter().map(|&i| repository[i].clone()).collect();
    assert_outcomes_identical(
        &discovered.outcome,
        &runner.run(&sublist),
        "discover_and_run",
    );
    assert!(
        discovered.outcome.metrics.joined_pairs > 0,
        "the shortlist must join"
    );

    // Work skipped, counted: every pair of the all-pairs run builds its
    // target index, and a pruned pair never does.
    let all_pairs_indexes = target_indexes_built(&all_pairs);
    let discover_indexes = target_indexes_built(&discovered.outcome);
    println!(
        "discovery: pruned {pruning_ratio:.4} of {} pairs, target indexes built \
         {all_pairs_indexes} -> {discover_indexes}",
        repository.len()
    );
    assert_eq!(all_pairs_indexes, repository.len());
    assert_eq!(discover_indexes, retained.len());
    assert!(discover_indexes < all_pairs_indexes);
}

/// One large clean pair plus a stream of small same-family appends: the
/// skewed shape where a rebuild re-synthesizes an ever-growing column for
/// every few appended rows.
#[test]
fn incremental_append_work_is_far_below_a_rebuild_per_append() {
    let workload = AppendWorkloadConfig {
        repository: RepositoryConfig::new(1, 300)
            .with_decoys(0.0)
            .with_noise(0.0),
        appends: 8,
        rows_per_append: 10,
    }
    .generate(23);
    let config = JoinPipelineConfig {
        matching: RowMatchingStrategy::Golden,
        ..JoinPipelineConfig::default()
    };
    let engine = SynthesisEngine::new(config.synthesis.clone());
    let floor = IncrementalJoinConfig {
        resynthesis_floor: 1.0,
    };

    let mut live = IncrementalJoin::new(config.clone(), floor, workload.base[0].clone());
    let mut incremental_work = 0u64;
    let mut rebuild_work = 0u64;
    let mut resyntheses = 0usize;
    for step in &workload.steps {
        let report = live.append(&step.rows);
        // What a rebuild per append spends on coverage: the engine's
        // trials over every candidate row of the grown pair.
        let rebuild = engine
            .discover_from_strings(&golden_value_pairs(live.pair()))
            .stats
            .coverage_trials;
        rebuild_work += rebuild;
        if report.resynthesized {
            resyntheses += 1;
            incremental_work += rebuild;
        } else {
            // The retained set scored over the delta rows only.
            incremental_work += (live.coverage().transformations().len() * step.rows.len()) as u64;
        }
    }

    // The maintained state is results-identical to a fresh full run.
    let fresh = JoinPipeline::new(config).run(live.pair());
    assert!(
        fresh.metrics.true_positives > 0,
        "the workload must actually join"
    );
    assert_eq!(live.outcome().predicted_pairs, fresh.predicted_pairs);
    assert_eq!(live.outcome().metrics, fresh.metrics);

    let ratio = rebuild_work as f64 / incremental_work as f64;
    println!(
        "incremental: {} appends, coverage work {incremental_work} vs rebuild {rebuild_work} \
         ({ratio:.0}x)",
        workload.steps.len()
    );
    assert!(
        ratio >= 100.0,
        "incremental coverage work ({incremental_work}) must stay at least 100x below a \
         rebuild per append ({rebuild_work}), got {ratio:.1}x"
    );
    assert_eq!(
        resyntheses, 0,
        "a clean same-family stream must never re-synthesize"
    );
}

/// FNV-1a over each selected transformation's rendering and covered rows:
/// a digest that is stable across toolchains, unlike `std`'s hashers.
fn cover_digest(cover: &TransformationSet) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for selected in &cover.transformations {
        eat(selected.transformation.to_string().as_bytes());
        for row in &selected.covered_rows {
            eat(&row.to_le_bytes());
        }
        eat(b";");
    }
    hash
}

/// The coverage phase on `RepositoryConfig::new(12, 80).generate(7000)`,
/// the first repository of perfbench's `repo_batch` at seed 7, with
/// `paper_default` and n-gram candidates. The summed trials, cache hits
/// and unit evaluations and each pair's (cover size, cover digest) are
/// pinned to the values of the row-at-a-time scan that coverage tiling
/// replaced: a faster scan has to do the same logical work and select the
/// same covers.
#[test]
#[ignore = "repository-scale synthesis; run with --release -- --ignored"]
fn coverage_counters_and_covers_are_pinned_on_the_repo_batch_repository() {
    let repository = RepositoryConfig::new(12, 80).generate(7000);
    let config = JoinPipelineConfig::paper_default();
    let synthesis = &config.synthesis;
    let engine = SynthesisEngine::new(synthesis.clone());
    let (mut trials, mut cache_hits, mut unit_evaluations) = (0u64, 0u64, 0u64);
    let mut covers = Vec::new();

    for pair in &repository {
        let rows = config
            .matching
            .candidates(pair, None, None)
            .expect("generated pairs never fail matching");
        let pairs = PairSet::from_strings(&pair.row_values(&rows), &synthesis.normalize);
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
        trials += coverage.trials;
        cache_hits += coverage.cache_hits;
        unit_evaluations += coverage.unit_evaluations;

        let result = engine.discover(&pairs);
        let name = &pair.name;
        assert_eq!(result.stats.coverage_trials, coverage.trials, "{name}");
        assert_eq!(result.stats.cache_hits, coverage.cache_hits, "{name}");
        covers.push((
            pair.name.clone(),
            result.cover.transformations.len(),
            cover_digest(&result.cover),
        ));
    }

    println!(
        "coverage: {trials} trials, {cache_hits} cache hits, {unit_evaluations} unit evaluations"
    );
    assert_eq!(
        (trials, cache_hits, unit_evaluations),
        (3_169_799, 68_570_318, 1_015_594)
    );
    let expected: Vec<(String, usize, u64)> = PINNED_COVERS
        .iter()
        .map(|&(name, size, digest)| (name.to_owned(), size, digest))
        .collect();
    assert_eq!(covers, expected);
}

/// Each pair's (name, cover size, [`cover_digest`]) on the repository
/// above; an empty cover digests to the FNV offset basis.
const PINNED_COVERS: [(&str, usize, u64); 12] = [
    ("repo-000-names", 37, 0xb671_c645_c09c_2d22),
    ("repo-001-emails", 73, 0x5b81_1e94_a464_5d49),
    ("repo-002-phones", 7, 0x9632_4f5c_6658_138f),
    ("repo-003-decoy", 0, 0xcbf2_9ce4_8422_2325),
    ("repo-004-dates", 50, 0x1cd5_62b9_c151_2f64),
    ("repo-005-products", 80, 0xbe4c_49fa_5cdd_42d8),
    ("repo-006-userids", 23, 0x285c_10ca_b91a_4564),
    ("repo-007-decoy", 0, 0xcbf2_9ce4_8422_2325),
    ("repo-008-names", 29, 0x471c_69bc_55c4_937c),
    ("repo-009-emails", 50, 0xba45_e500_0459_b4da),
    ("repo-010-phones", 12, 0xa42a_b289_7344_3d8e),
    ("repo-011-decoy", 1, 0xa37b_9fea_7b01_f004),
];
