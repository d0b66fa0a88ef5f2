//! Cross-crate integration tests: datasets → row matching → synthesis → join.

use tabjoin::prelude::*;

/// The synthesis engine recovers the ground-truth rules of a synthetic table
/// pair (the Synth-N setting of Section 6.1) under golden row matching.
#[test]
fn synthetic_ground_truth_recovered() {
    let dataset = SyntheticConfig::synth(40).generate(11);
    let pair = dataset.column_pair();
    let rows: Vec<(String, String)> = pair
        .source
        .iter()
        .cloned()
        .zip(pair.target.iter().cloned())
        .collect();
    let engine = SynthesisEngine::new(SynthesisConfig::default());
    let result = engine.discover_from_strings(&rows);
    assert!(
        (result.set_coverage() - 1.0).abs() < 1e-9,
        "covering set must cover every synthetic row, got {}\n{}",
        result.set_coverage(),
        result.cover
    );
    // The paper generates 3 transformations per synthetic table; the greedy
    // cover should not need many more than that.
    assert!(
        result.cover.len() <= 6,
        "cover unexpectedly large: {}",
        result.cover.len()
    );
}

/// End-to-end join on a simulated web-table pair reaches a reasonable F1 with
/// n-gram matching, and a better one with golden matching.
#[test]
fn web_table_pair_end_to_end() {
    let pairs = tabjoin::datasets::realistic::web_tables(3);
    // The name-abbreviation topic is the paper's running example.
    let pair = pairs
        .iter()
        .find(|p| p.name.contains("staff-names"))
        .expect("staff-names topic present")
        .column_pair();

    let ngram = JoinPipeline::new(JoinPipelineConfig::paper_default()).run(&pair);
    assert!(
        ngram.metrics.f1 > 0.5,
        "n-gram end-to-end f1 too low: {:?}",
        ngram.metrics
    );

    let golden_cfg = JoinPipelineConfig {
        matching: RowMatchingStrategy::Golden,
        ..JoinPipelineConfig::paper_default()
    };
    let golden = JoinPipeline::new(golden_cfg).run(&pair);
    assert!(
        golden.metrics.f1 >= ngram.metrics.f1 - 0.05,
        "golden matching should not be much worse: {:?} vs {:?}",
        golden.metrics,
        ngram.metrics
    );
    assert!(golden.metrics.precision > 0.8);
}

/// Spreadsheet-style tasks are mostly coverable by a single transformation
/// (the property driving the paper's numbers on that benchmark).
#[test]
fn spreadsheet_tasks_single_rule() {
    let pairs = tabjoin::datasets::realistic::spreadsheet(5);
    let engine = SynthesisEngine::new(SynthesisConfig::spreadsheet());
    let mut single_rule = 0usize;
    let mut checked = 0usize;
    for pair in pairs.iter().take(12) {
        let cp = pair.column_pair();
        let rows: Vec<(String, String)> = cp
            .source
            .iter()
            .cloned()
            .zip(cp.target.iter().cloned())
            .collect();
        let result = engine.discover_from_strings(&rows);
        checked += 1;
        if result.top_coverage() > 0.95 {
            single_rule += 1;
        }
        assert!(
            result.set_coverage() > 0.9,
            "task {} covering set too small: {}",
            pair.name,
            result.set_coverage()
        );
    }
    assert!(
        single_rule * 2 >= checked,
        "expected most tasks to be single-rule: {single_rule}/{checked}"
    );
}

/// The n-gram matcher has high recall on the synthetic benchmark and the
/// engine tolerates its false positives (Table 1 + Table 2 behaviour).
#[test]
fn ngram_matching_feeds_synthesis() {
    // Seed 19 draws ground-truth transformations whose outputs share enough
    // long n-grams with their sources for the matcher to reach high (but not
    // perfect) recall; everything downstream is deterministic given the seed.
    let dataset = SyntheticConfig::synth(50).generate(19);
    let pair = dataset.column_pair();
    let matcher = NGramMatcher::with_defaults();
    let candidates = matcher.try_find_candidates(&pair, None, None).unwrap();
    let metrics = tabjoin::join::evaluate_join(&candidates, &pair.golden);
    assert!(metrics.recall > 0.7, "recall {:?}", metrics);

    let values = pair.row_values(&candidates);
    let result = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&values);
    assert!(
        result.set_coverage() > 0.8,
        "coverage {} over {} candidate pairs",
        result.set_coverage(),
        values.len()
    );
}

/// Auto-Join and our engine find transformations of comparable coverage on a
/// clean single-rule input, while the engine needs far fewer unit
/// evaluations (the Table 2 running-time argument, checked via work counts
/// rather than wall-clock to stay robust in CI).
#[test]
fn autojoin_comparison_on_single_rule_data() {
    let rows: Vec<(String, String)> = (0..20)
        .map(|i| {
            (
                format!("employee-{i:02}, unit-{}", i % 4),
                format!("unit-{} employee-{i:02}", i % 4),
            )
        })
        .collect();
    let ours = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&rows);
    assert!((ours.set_coverage() - 1.0).abs() < 1e-9);

    let aj = AutoJoin::new(AutoJoinConfig {
        subset_count: 4,
        time_budget: std::time::Duration::from_secs(30),
        ..AutoJoinConfig::default()
    });
    let aj_result = aj.discover(&rows);
    let aj_set = aj_result.evaluate(&rows, &tabjoin::text::NormalizeOptions::default());
    assert!(aj_set.set_coverage() > 0.5, "auto-join coverage {}", aj_set.set_coverage());

    // Work comparison: the blind parameter sweep evaluates far more units
    // than the placeholder-guided engine generates transformations.
    assert!(
        aj_result.units_enumerated > ours.stats.generated_transformations,
        "auto-join work {} vs ours {}",
        aj_result.units_enumerated,
        ours.stats.generated_transformations
    );
}

/// The open-data regime: low-precision row matching plus sampling and a
/// support threshold still produce a usable join (Section 6.4).
#[test]
fn open_data_sampling_recovery() {
    // A scaled-down open-data pair: the generator keeps the skew at any size.
    let small = tabjoin::datasets::realistic::open_data(1, 500).column_pair();
    let matcher = NGramMatcher::with_defaults();
    let candidates = matcher.try_find_candidates(&small, None, None).unwrap();
    let metrics = tabjoin::join::evaluate_join(&candidates, &small.golden);
    assert!(
        metrics.recall > 0.8,
        "open-data matching recall too low: {:?}",
        metrics
    );
    assert!(
        metrics.precision < 0.6,
        "open-data matching should be noisy, precision {:?}",
        metrics
    );

    // With ~3% matcher precision the dominant rule's support in the sample
    // sits near the join support threshold; an 800-pair sample separates it
    // from the junk literal rules (whose support is a fixed handful of
    // duplicated addresses, so their *fraction* shrinks as the sample grows)
    // and makes the outcome robust across generator seeds rather than a
    // knife-edge draw.
    let pipeline = JoinPipeline::new(JoinPipelineConfig {
        matching: RowMatchingStrategy::NGram(NGramMatcherConfig::default()),
        synthesis: SynthesisConfig::default()
            .with_sample(800, 5)
            .with_min_support(0.01),
        join_min_support: 0.015,
    });
    let outcome = pipeline.run(&small);
    // At this scaled-down size the support threshold is a weak filter, so the
    // join over-predicts relative to the paper's full-size run; it must
    // still recover most true pairs and stay well above the similarity-only
    // baseline's behaviour on this data.
    assert!(
        outcome.metrics.recall > 0.5,
        "join recall {:?}",
        outcome.metrics
    );
    assert!(
        outcome.metrics.precision > 0.15,
        "join precision {:?}",
        outcome.metrics
    );
    assert!(outcome.metrics.f1 > 0.25, "join f1 {:?}", outcome.metrics);
}
