//! Discovery benchmark, tracking the anchor-prune claims in
//! `BENCH_discovery.json` at the workspace root:
//!
//! * **Shortlist vs all-pairs**: a decoy-dominated 120-column repository
//!   (60 pairs, ≥ 100 tables) run end-to-end through
//!   `BatchJoinRunner::discover_and_run` against the brute-force all-pairs
//!   batch run. Outcomes over the shortlisted pairs are asserted
//!   bit-identical to the plain runner before timing; the shortlist must
//!   prune ≥ 80 % of the pair space (hard gate) and recall every pair the
//!   all-pairs run can join (hard gate: recall 1.0).
//! * **Work saved, counted**: on fresh runners, the target n-gram indexes
//!   the matcher builds under `discover_and_run` must be strictly fewer
//!   than under the all-pairs run (hard gate), since a pruned pair never
//!   builds one. The two wall-clock medians are recorded ungated. Their
//!   ratio is not recorded: it read 1.00–1.30 across runs of unchanged
//!   code, so it measured noise, not discovery.
//! * **Decoy quality**: the repository generator's decoys (ground truth:
//!   empty golden mapping, `tjoin_datasets::is_decoy`) become a measured
//!   recall/precision benchmark — generator-label recall and decoy
//!   precision land in the JSON instead of a zero-only gate.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tjoin_bench::time_seconds;
use tjoin_datasets::{is_decoy, RepositoryConfig};
use tjoin_join::{
    BatchJoinOutcome, BatchJoinRunner, DiscoveryConfig, JoinPipelineConfig,
};

const THREADS: usize = 4;
const PAIRS: usize = 60;
const ROWS: usize = 80;
const DECOY_FRACTION: f64 = 0.95;

/// Results-only outcome comparison (wall-clock fields and scheduling
/// counters are measurements, not results).
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
        assert_eq!(ra.outcome.metrics, rb.outcome.metrics, "{context}: metrics of {}", ra.name);
    }
    assert_eq!(a.metrics.micro, b.metrics.micro, "{context}: micro metrics");
    assert_eq!(a.metrics.macro_f1, b.metrics.macro_f1, "{context}: macro F1");
}

fn discovery_comparison(_c: &mut Criterion) {
    // 60 pairs = 120 distinct columns (tables), 85 % decoys: the
    // repository-scale regime where almost every candidate pair is not
    // joinable and the all-pairs pipeline run is almost entirely wasted.
    let repository =
        RepositoryConfig::new(PAIRS, ROWS).with_decoys(DECOY_FRACTION).generate(23);
    let tables = repository.len() * 2;
    assert!(tables >= 100, "the bench repo must span at least 100 tables");
    let decoys = repository.iter().filter(|p| is_decoy(p)).count();
    let joinable_pairs = repository.len() - decoys;
    let config = JoinPipelineConfig::paper_default();
    let runner = BatchJoinRunner::new(config.clone(), THREADS);
    // A pipeline-joinable pair can hinge on a single shared 4-gram, so
    // discovery prunes only pairs sharing none (decoys included — the
    // pipeline sometimes joins a decoy by accident, and the oracle gate
    // below counts those too). Rows per column are sized so accidental
    // single-gram collisions between unrelated columns stay rare enough for
    // the ≥ 0.8 pruning gate.
    let discovery = DiscoveryConfig::paper_default().with_threads(THREADS);

    // --- Identity and quality gates, before any timing. ---
    let all_pairs = runner.run(&repository);
    let discovered = runner.discover_and_run(&repository, &discovery);
    let shortlist = &discovered.shortlist;
    let retained: Vec<usize> = shortlist.ranked.iter().map(|entry| entry.index).collect();

    // Recall 1.0 against the all-pairs pipeline oracle (hard gate).
    let pipeline_joinable: Vec<usize> = all_pairs
        .reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.outcome.predicted_pairs.is_empty())
        .map(|(i, _)| i)
        .collect();
    for &index in &pipeline_joinable {
        assert!(
            retained.contains(&index),
            "pipeline-joinable pair {} pruned from the shortlist",
            repository[index].name
        );
    }
    assert!(!pipeline_joinable.is_empty(), "the recall gate must bite");

    // Pruning ratio ≥ 0.8 on the repository's pair space (hard gate).
    let pruning_ratio = shortlist.pruning_ratio();
    assert!(
        pruning_ratio >= 0.8,
        "shortlist pruned only {pruning_ratio:.3} of the pair space"
    );

    // Decoy quality: measured recall/precision against the generator's
    // ground-truth labels (empty golden mapping).
    let retained_joinable = retained.iter().filter(|&&i| !is_decoy(&repository[i])).count();
    let label_recall = retained_joinable as f64 / joinable_pairs as f64;
    let decoy_precision = retained_joinable as f64 / retained.len().max(1) as f64;

    // The discovered outcome is the plain runner over the shortlist.
    let sublist: Vec<_> =
        shortlist.ranked.iter().map(|entry| repository[entry.index].clone()).collect();
    assert_outcomes_identical(
        &discovered.outcome,
        &runner.run(&sublist),
        "discover_and_run vs plain run",
    );
    assert!(
        discovered.outcome.metrics.joined_pairs > 0,
        "the shortlisted pairs must produce real predictions"
    );

    // Work saved, as a deterministic counter: the runner has no resident
    // corpus, so each run above built and counted its own target indexes.
    let indexes_built = |outcome: &BatchJoinOutcome| {
        outcome.scheduler.corpus.as_ref().expect("n-gram runs report corpus stats").indexes_built
    };
    let all_pairs_indexes = indexes_built(&all_pairs);
    let discover_indexes = indexes_built(&discovered.outcome);

    // --- Timings. ---
    let samples = 5;
    let all_pairs_secs = time_seconds(samples, || {
        black_box(runner.run(black_box(&repository)));
    });
    let discover_secs = time_seconds(samples, || {
        black_box(runner.discover_and_run(black_box(&repository), &discovery));
    });

    let summary = format!(
        "{{\n  \"benchmark\": \"discovery\",\n  \"threads\": {THREADS},\n  \"workload\": {{\n    \"tables\": {tables},\n    \"pairs\": {PAIRS},\n    \"rows_per_pair\": {ROWS},\n    \"decoy_fraction\": {DECOY_FRACTION},\n    \"decoy_pairs\": {decoys},\n    \"joinable_pairs\": {joinable_pairs}\n  }},\n  \"shortlist\": {{\n    \"retained\": {},\n    \"pruning_ratio\": {pruning_ratio:.4},\n    \"recall_vs_pipeline_oracle\": 1.0,\n    \"recall_vs_generator_labels\": {label_recall:.4},\n    \"decoy_precision\": {decoy_precision:.4},\n    \"outcomes_bit_identical\": true\n  }},\n  \"work\": {{\n    \"all_pairs_indexes_built\": {all_pairs_indexes},\n    \"discover_and_run_indexes_built\": {discover_indexes}\n  }},\n  \"wall_clock\": {{\n    \"samples\": {samples},\n    \"all_pairs_median_seconds\": {all_pairs_secs:.6},\n    \"discover_and_run_median_seconds\": {discover_secs:.6}\n  }}\n}}\n",
        retained.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_discovery.json");
    std::fs::write(path, &summary).expect("write BENCH_discovery.json");
    println!(
        "discovery: shortlist pruned {pruning_ratio:.2} of {PAIRS} pairs, \
         all-pairs {all_pairs_secs:.4}s vs discover_and_run {discover_secs:.4}s, \
         target indexes built {all_pairs_indexes} -> {discover_indexes}, \
         decoy precision {decoy_precision:.2}"
    );
    println!("summary written to {path}");
    // Discovery exists to skip work; a pruned pair that still builds its
    // target index is a regression in the shortlist or the run wiring.
    assert!(
        discover_indexes < all_pairs_indexes,
        "discovery-first built {discover_indexes} target indexes, not strictly below \
         all-pairs' {all_pairs_indexes}"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = discovery_comparison
}
criterion_main!(benches);
