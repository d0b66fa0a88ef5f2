//! Repository-scale matching + join benchmark, tracking five claims in
//! `BENCH_join.json` at the workspace root:
//!
//! * **Matcher identity**: the fused serial row scan (stats/index built
//!   once, per-size representative selection in one pass per row) is
//!   bit-identical to the retained size-major oracle
//!   (`tjoin_matching::reference`). The matcher is not timed here: the
//!   repository benchmark (`perfbench/`) times it end to end in every
//!   workload, where a ratio against the oracle on one synthetic pair says
//!   nothing about the wall-clock that matters.
//! * **Reference vs fingerprint equi-join**: the owned-string-keyed oracle
//!   (`tjoin_join::reference`) against the fingerprint join (normalize
//!   once, u64 buckets, exact confirm), identical output asserted.
//! * **Batch runner throughput**: the heterogeneous generated repository
//!   driven by the work-stealing `BatchJoinRunner` at thread budgets 1 and
//!   4, with identical outcomes asserted.
//! * **Skewed repository — work stealing vs static split**: one ~8x
//!   dominant pair among small peers, the shape where the static chunk
//!   split strands workers. Outcomes asserted identical both ways; the
//!   JSON records the steal count and the shared-corpus counters
//!   (normalizations saved, asserted thread-count-invariant). Neither
//!   driver is timed: on a 2-vCPU box the stealing-vs-static ratio moved
//!   with the run (0.86x measured), so the counters are the tracked claim.
//! * **Budget overhead**: the per-pair pipeline (`run_guarded`, which
//!   `run` is) without a budget against the same call with a live unlimited
//!   budget token (admission charging + cooperative checks). Outcomes
//!   asserted bit-identical; the ratio is tracked, pathology-only gated —
//!   budgets must stay effectively free on the fault-free path.
//!
//! Outputs are asserted bit-identical across every leg before timing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tjoin_bench::time_seconds;
use tjoin_datasets::{ColumnPair, RepositoryConfig};
use tjoin_join::reference::equi_join_reference;
use tjoin_join::{BatchJoinRunner, JoinPipeline, JoinPipelineConfig};
use tjoin_matching::reference::find_candidates_reference;
use tjoin_matching::{NGramMatcher, NGramMatcherConfig, RowMatch};
use tjoin_text::RunBudget;
use tjoin_units::{Transformation, Unit};

const THREADS: usize = 4;

/// The matcher workload: name-style rows with shared surface structure
/// (every row contains ", " and the "last"/"first" stems) so representative
/// selection has real competition at every size.
fn matcher_pair(rows: usize) -> ColumnPair {
    let source: Vec<String> = (0..rows)
        .map(|i| format!("lastname{i:05}, firstname{i:05} dept{:02}", i % 23))
        .collect();
    let target: Vec<String> = (0..rows)
        .map(|i| format!("f{i:05} lastname{i:05}"))
        .collect();
    ColumnPair::aligned("bench-matcher", source, target)
}

/// The equi-join workload: a large 1:1 pair plus a block of duplicated
/// target values for many-to-many fan-out. Values are realistically long
/// (~30 characters) so the per-probe string hashing the fingerprint join
/// removes is a real cost in the reference.
fn join_pair(rows: usize) -> ColumnPair {
    let source: Vec<String> = (0..rows)
        .map(|i| format!("lastname-of-the-house-{i:05}, firstname{i:05}"))
        .collect();
    let mut target: Vec<String> = (0..rows)
        .map(|i| format!("f lastname-of-the-house-{i:05}"))
        .collect();
    for i in 0..rows / 100 {
        // 1% of targets duplicate their neighbor's value.
        target[i * 100 + 1] = target[i * 100].clone();
    }
    ColumnPair::aligned("bench-join", source, target)
}

fn join_transformations() -> Vec<Transformation> {
    vec![
        // The covering rule.
        Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]),
        // Rules that apply but rarely or never match a target.
        Transformation::single(Unit::split(',', 0)),
        Transformation::single(Unit::substr(0, 8)),
        Transformation::new(vec![Unit::split(',', 0), Unit::literal("-x")]),
    ]
}

/// The matcher's per-call scan (no corpus, no budget), which cannot abort.
fn candidates(matcher: &NGramMatcher, pair: &ColumnPair) -> Vec<RowMatch> {
    matcher.try_find_candidates(pair, None, None).expect("unbudgeted per-call scan")
}

fn join_throughput_comparison(_c: &mut Criterion) {
    // --- Leg 1: matcher — the fused scan vs the reference. ---
    let matcher_rows = 1_000;
    let m_pair = matcher_pair(matcher_rows);
    let m_config = NGramMatcherConfig::default();
    let reference_matches = find_candidates_reference(&m_config, &m_pair);
    assert_eq!(candidates(&NGramMatcher::new(m_config), &m_pair), reference_matches);
    assert!(!reference_matches.is_empty());

    // --- Leg 2: equi-join — reference vs fingerprint. ---
    let samples = 7;
    let join_rows = 20_000;
    let j_pair = join_pair(join_rows);
    let transformations = join_transformations();
    let refs: Vec<&Transformation> = transformations.iter().collect();
    let config = JoinPipelineConfig::paper_default();
    let pipeline = JoinPipeline::new(config.clone());
    let reference_pairs =
        equi_join_reference(&j_pair, refs.iter().copied(), &config.synthesis.normalize);
    assert_eq!(pipeline.equi_join(&j_pair, refs.iter().copied()), reference_pairs);
    // The duplicated-target fan-out block must be present in the output:
    // source row 0 pairs with target rows 0 and 1.
    assert!(reference_pairs.len() >= join_rows);
    assert!(reference_pairs.contains(&(0, 0)) && reference_pairs.contains(&(0, 1)));

    let j_reference_secs = time_seconds(samples, || {
        black_box(equi_join_reference(
            black_box(&j_pair),
            refs.iter().copied(),
            &config.synthesis.normalize,
        ));
    });
    let j_fingerprint_secs = time_seconds(samples, || {
        black_box(pipeline.equi_join(black_box(&j_pair), refs.iter().copied()));
    });

    // --- Leg 3: batch runner over the generated repository. ---
    let repository = RepositoryConfig::new(12, 80).generate(7);
    let batch_1 = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 1);
    let batch_4 = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), THREADS);
    let outcome_1 = batch_1.run(&repository);
    let outcome_4 = batch_4.run(&repository);
    let outcome_static = batch_4.run_static(&repository);
    for ((a, b), s) in outcome_1
        .reports
        .iter()
        .zip(&outcome_4.reports)
        .zip(&outcome_static.reports)
    {
        assert_eq!(a.outcome.predicted_pairs, b.outcome.predicted_pairs, "{}", a.name);
        assert_eq!(a.outcome.predicted_pairs, s.outcome.predicted_pairs, "{}", a.name);
        assert_eq!(a.outcome.metrics, s.outcome.metrics, "{}", a.name);
    }
    assert!(outcome_1.metrics.joined_pairs >= 6, "{:?}", outcome_1.metrics);

    let batch_samples = 5;
    let b_serial_secs = time_seconds(batch_samples, || {
        black_box(batch_1.run(black_box(&repository)));
    });
    let b_parallel_secs = time_seconds(batch_samples, || {
        black_box(batch_4.run(black_box(&repository)));
    });

    // --- Leg 4: skewed repository — work stealing vs the static split. ---
    // One ~8x dominant pair among small peers: the static split parks it on
    // one worker's chunk, the queue lets every other worker drain the rest.
    let mut skewed = RepositoryConfig::new(6, 50).with_skew(8.0).generate(13);
    assert!(skewed[0].source.len() >= 6 * skewed[1].source.len());
    // Re-probe one query column against two other pairs' targets (the
    // QJoin repository-discovery shape: no golden mapping, likely
    // unjoinable): the shared corpus serves the repeated column from
    // cache, which the JSON's normalizations_saved counter tracks.
    for i in [2usize, 3] {
        let source = skewed[1].source.clone();
        let target: Vec<String> = (0..source.len())
            .map(|r| skewed[i].target[r % skewed[i].target.len()].clone())
            .collect();
        skewed.push(ColumnPair::new(format!("reprobe-{i}"), source, target, Vec::new()));
    }
    let skew_runner = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), THREADS);
    let skew_stealing = skew_runner.run(&skewed);
    let skew_static = skew_runner.run_static(&skewed);
    for (a, b) in skew_stealing.reports.iter().zip(&skew_static.reports) {
        assert_eq!(a.outcome.predicted_pairs, b.outcome.predicted_pairs, "{}", a.name);
        assert_eq!(a.outcome.metrics, b.outcome.metrics, "{}", a.name);
    }
    assert_eq!(skew_stealing.metrics.micro, skew_static.metrics.micro);
    // The corpus counters are content-driven: identical at any thread
    // budget (the per-column normalization count cannot depend on the
    // worker count).
    let skew_corpus = skew_stealing.scheduler.corpus.expect("corpus present");
    for threads in [1usize, 2] {
        let other = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
            .run(&skewed)
            .scheduler
            .corpus
            .expect("corpus present");
        assert_eq!(other, skew_corpus, "corpus counters diverged at {threads} threads");
    }

    // --- Leg 5: budget overhead — no budget vs a live unlimited budget. ---
    let iso_pair = matcher_pair(400);
    let iso_pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
    let iso_budget = RunBudget::unlimited()
        .with_row_cap(u64::MAX)
        .with_byte_cap(u64::MAX);
    let iso_plain = iso_pipeline.run_guarded(&iso_pair, None, None);
    let iso_budgeted = iso_pipeline.run_guarded(&iso_pair, None, Some(&iso_budget));
    assert!(iso_plain.status.is_ok(), "{:?}", iso_plain.status);
    assert!(iso_budgeted.status.is_ok(), "{:?}", iso_budgeted.status);
    assert_eq!(iso_budgeted.outcome.predicted_pairs, iso_plain.outcome.predicted_pairs);
    assert_eq!(iso_budgeted.outcome.metrics, iso_plain.outcome.metrics);
    assert_eq!(iso_budgeted.outcome.candidate_pairs, iso_plain.outcome.candidate_pairs);
    let iso_samples = 5;
    let iso_plain_secs = time_seconds(iso_samples, || {
        black_box(iso_pipeline.run_guarded(black_box(&iso_pair), None, None));
    });
    let iso_budgeted_secs = time_seconds(iso_samples, || {
        black_box(iso_pipeline.run_guarded(black_box(&iso_pair), None, Some(&iso_budget)));
    });

    let join_fingerprint_speedup = j_reference_secs / j_fingerprint_secs;
    let batch_speedup = b_serial_secs / b_parallel_secs;
    let budgeted_relative = iso_plain_secs / iso_budgeted_secs;
    let summary = format!(
        "{{\n  \"benchmark\": \"join_throughput\",\n  \"threads\": {THREADS},\n  \"matcher\": {{\n    \"rows\": {matcher_rows},\n    \"candidates\": {},\n    \"outputs_bit_identical\": true\n  }},\n  \"equi_join\": {{\n    \"rows\": {join_rows},\n    \"transformations\": {},\n    \"samples\": {samples},\n    \"reference_median_seconds\": {j_reference_secs:.6},\n    \"fingerprint_median_seconds\": {j_fingerprint_secs:.6},\n    \"speedup_fingerprint_vs_reference\": {join_fingerprint_speedup:.2},\n    \"predicted_pairs\": {},\n    \"outputs_bit_identical\": true\n  }},\n  \"batch\": {{\n    \"pairs\": {},\n    \"rows_per_pair\": 80,\n    \"samples\": {batch_samples},\n    \"budget_1_median_seconds\": {b_serial_secs:.6},\n    \"budget_4_median_seconds\": {b_parallel_secs:.6},\n    \"speedup_budget_4_vs_1\": {batch_speedup:.2},\n    \"joined_pairs\": {},\n    \"micro_f1\": {:.4},\n    \"macro_f1\": {:.4},\n    \"outcomes_bit_identical\": true\n  }},\n  \"batch_skew\": {{\n    \"pairs\": {},\n    \"rows_per_pair\": 50,\n    \"skew\": 8.0,\n    \"dominant_pair_rows\": {},\n    \"stolen_tasks\": {},\n    \"corpus_columns_interned\": {},\n    \"corpus_normalizations_saved\": {},\n    \"corpus_stats_reused\": {},\n    \"corpus_counts_thread_invariant\": true,\n    \"outcomes_bit_identical\": true\n  }},\n  \"isolation\": {{\n    \"rows\": 400,\n    \"samples\": {iso_samples},\n    \"no_budget_median_seconds\": {iso_plain_secs:.6},\n    \"budgeted_median_seconds\": {iso_budgeted_secs:.6},\n    \"relative_throughput_budgeted\": {budgeted_relative:.2},\n    \"outcomes_bit_identical\": true\n  }}\n}}\n",
        reference_matches.len(),
        transformations.len(),
        reference_pairs.len(),
        repository.len(),
        outcome_1.metrics.joined_pairs,
        outcome_1.metrics.micro.f1,
        outcome_1.metrics.macro_f1,
        skewed.len(),
        skewed[0].source.len(),
        skew_stealing.scheduler.stolen_tasks,
        skew_corpus.columns_interned,
        skew_corpus.normalizations_saved(),
        skew_corpus.stats_hits + skew_corpus.index_hits,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    std::fs::write(path, &summary).expect("write BENCH_join.json");
    println!(
        "equi_join: fingerprint {join_fingerprint_speedup:.2}x over reference \
         ({j_reference_secs:.4}s -> {j_fingerprint_secs:.4}s)"
    );
    println!("batch: budget 4 {batch_speedup:.2}x over budget 1 ({b_serial_secs:.4}s -> {b_parallel_secs:.4}s)");
    println!(
        "batch_skew: stealing identical to static split, {} stolen tasks, \
         {} column normalizations saved by the corpus",
        skew_stealing.scheduler.stolen_tasks,
        skew_corpus.normalizations_saved(),
    );
    println!(
        "isolation: budgeted at {budgeted_relative:.2}x of unbudgeted throughput \
         ({iso_plain_secs:.4}s -> {iso_budgeted_secs:.4}s)"
    );
    println!("summary written to {path}");
    // Hard gates are output identity (asserted above). Wall-clock ratios
    // are *tracked* in the JSON, not tightly gated: medians of 5-7 samples
    // on a contended 2-vCPU runner shift by tens of percent, and this bench
    // runs on every push — the asserts below only catch order-of-magnitude
    // pathology (a leg collapsing to half speed or worse).
    assert!(
        join_fingerprint_speedup > 0.5,
        "structural leg collapsed: fingerprint join {join_fingerprint_speedup:.2}x vs its reference"
    );
    assert!(
        batch_speedup > 0.5,
        "batch leg collapsed: budget 4 at {batch_speedup:.2}x of budget 1"
    );
    assert!(
        budgeted_relative > 0.5,
        "budgets stopped being cheap: budgeted at {budgeted_relative:.2}x of \
         unbudgeted throughput"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = join_throughput_comparison
}
criterion_main!(benches);
