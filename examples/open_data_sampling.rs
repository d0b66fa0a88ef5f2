//! The Open-data scenario: a large, noisy address join where the n-gram row
//! matcher has very low precision, and synthesis recovers by running on a
//! small sample with a support threshold (Sections 5.3 and 6.3–6.4 of the
//! paper).
//!
//! Run with:
//! ```text
//! cargo run --release --example open_data_sampling
//! ```

use tabjoin::datasets::realistic::open_data;
use tabjoin::prelude::*;
use tabjoin::synthesis::{discovery_probability, SamplingAnalysis};

fn main() {
    // A scaled-down open-data pair (the paper's is ~3 M rows; the simulated
    // generator keeps the same skew at any size).
    let pair = open_data(42, 1200).column_pair();
    println!(
        "open-data pair: {} source rows, {} target rows",
        pair.source_len(),
        pair.target_len()
    );

    // Step 1: row matching — expect a huge candidate set with low precision.
    let matcher = NGramMatcher::with_defaults();
    let candidates = matcher
        .try_find_candidates(&pair, None, None)
        .expect("matching without a budget or corpus cannot abort");
    let metrics = tabjoin::join::evaluate_join(&candidates, &pair.golden);
    println!(
        "n-gram matching: {} candidate pairs, precision {:.3}, recall {:.3}",
        metrics.predicted, metrics.precision, metrics.recall
    );

    // Step 2: the analytic sampling argument — how big a sample is needed to
    // still discover a transformation covering 5% of the input?
    println!("\nsample-size analysis for a transformation with 5% coverage:");
    println!("  sample   P(discovered by ours)   P(one Auto-Join subset covered)");
    for s in [10usize, 50, 100, 300, 1000] {
        let a = SamplingAnalysis::compute(0.05, s);
        println!(
            "  {:>6}   {:>20.3}   {:>30.5}",
            s, a.discovery_probability, a.autojoin_subset_probability
        );
    }
    assert!(discovery_probability(0.05, 100) > 0.9);

    // Step 3: synthesis on a <1% sample of the candidate pairs with a support
    // threshold, as the paper does for this dataset.
    let config = SynthesisConfig::default()
        .with_sample(400, 7)
        .with_min_support(0.01);
    let engine = SynthesisEngine::new(config);
    let result = engine.discover_from_strings(&pair.row_values(&candidates));
    println!(
        "\nsynthesis on a {}-pair sample of {} candidates:",
        result.stats.pairs_used, result.stats.pairs_total
    );
    println!("{}", result.cover);
    println!("{}", result.stats);

    // Step 4: end-to-end join quality with a 2% support threshold (Table 3's
    // Open-data row uses 2%).
    let pipeline = JoinPipeline::new(JoinPipelineConfig {
        matching: RowMatchingStrategy::NGram(NGramMatcherConfig::default()),
        synthesis: SynthesisConfig::default().with_sample(400, 7).with_min_support(0.01),
        join_min_support: 0.02,
    });
    let outcome = pipeline.run(&pair);
    println!(
        "end-to-end join: precision {:.3} recall {:.3} f1 {:.3} ({} transformations applied)",
        outcome.metrics.precision,
        outcome.metrics.recall,
        outcome.metrics.f1,
        outcome.transformations.len()
    );
}
