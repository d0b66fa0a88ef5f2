//! One column pair driven through the layers' public functions in the
//! engine's order, with a span around every layer call:
//!
//! matcher → `generate_transformations` → `compute_coverage_planned_budgeted`
//! → support filter/densify → `top_k` → `lazy_greedy_cover_budgeted` →
//! `equi_join`
//!
//! The batch runner's worker pool cannot be entered from outside, so a
//! traced op calls this per pair instead, and checks the composed result
//! against the runner's own report for the same pair.

use std::hint::black_box;

use tjoin_core::cover::{
    lazy_greedy_cover_budgeted, min_rows_for_support, top_k, ScoredTransformation,
};
use tjoin_core::coverage::compute_coverage_planned_budgeted;
use tjoin_core::generate::generate_transformations;
use tjoin_core::sampling::sample_indices;
use tjoin_core::{PairSet, RowBitmap};
use tjoin_datasets::ColumnPair;
use tjoin_join::{
    evaluate_join, BatchJoinOutcome, JoinMetrics, JoinOutcome, JoinPipeline, JoinPipelineConfig,
    PairStatus, RowMatchingStrategy,
};
use tjoin_matching::{golden_value_pairs, NGramMatcher};
use tjoin_text::{CorpusStats, GramCorpus};
use tjoin_units::TransformationSet;

use crate::threads;
use crate::trace::Tracer;

/// The result-bearing fields of a pair's outcome (wall-clock fields are
/// measurements, not results, and are left out).
#[derive(Debug, Clone, PartialEq)]
pub struct PairResult {
    /// Transformations applied in the join, after support filtering.
    pub transformations: TransformationSet,
    /// Predicted joinable row pairs.
    pub predicted_pairs: Vec<(u32, u32)>,
    /// Join quality against the golden mapping.
    pub metrics: JoinMetrics,
    /// Candidate pairs handed to synthesis.
    pub candidate_pairs: usize,
}

impl From<&JoinOutcome> for PairResult {
    fn from(outcome: &JoinOutcome) -> Self {
        Self {
            transformations: outcome.transformations.clone(),
            predicted_pairs: outcome.predicted_pairs.clone(),
            metrics: outcome.metrics,
            candidate_pairs: outcome.candidate_pairs,
        }
    }
}

/// The per-pair pipeline of a `BatchJoinRunner` under the machine's
/// thread budget on a run of `pairs` pairs: `min(threads, pairs)` workers,
/// each pair given the rest of the budget as its inner threads.
pub fn runner_pipeline(config: &JoinPipelineConfig, pairs: usize) -> JoinPipeline {
    let workers = threads().min(pairs).max(1);
    JoinPipeline::new(config.clone().with_threads((threads() / workers).max(1)))
}

/// An empty corpus that normalizes like `config`'s n-gram matcher: what
/// the batch runner builds for one run.
pub fn run_corpus(config: &JoinPipelineConfig) -> GramCorpus {
    match &config.matching {
        RowMatchingStrategy::NGram(matcher) => GramCorpus::new(matcher.normalize),
        RowMatchingStrategy::Golden => unreachable!("only n-gram matching reads a corpus"),
    }
}

/// One batch report's name, status and results.
pub type ReportResult = (String, PairStatus, PairResult);

/// The result-bearing part of a batch outcome, report by report.
pub fn batch_results(outcome: &BatchJoinOutcome) -> Vec<ReportResult> {
    outcome
        .reports
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.status.clone(),
                PairResult::from(&r.outcome),
            )
        })
        .collect()
}

/// Check failures of one batch outcome over `repository`: one report per
/// pair, in input order, each with status `Ok`.
pub fn batch_failures(
    outcome: &BatchJoinOutcome,
    repository: &[ColumnPair],
    what: &str,
) -> Vec<String> {
    let names: Vec<&str> = outcome.reports.iter().map(|r| r.name.as_str()).collect();
    let expected: Vec<&str> = repository.iter().map(|p| p.name.as_str()).collect();
    let mut failures = Vec::new();
    if names != expected {
        failures.push(format!(
            "{what}: reports {names:?} do not follow the input {expected:?}"
        ));
    }
    for report in outcome.reports.iter().filter(|r| !r.status.is_ok()) {
        failures.push(format!(
            "{what}: pair {} ended {:?}",
            report.name, report.status
        ));
    }
    failures
}

/// Records the corpus lookups made between two snapshots of one corpus
/// (no eviction may happen between them): cache hits, and artifact builds.
pub fn count_corpus(tracer: &mut Tracer, before: &CorpusStats, after: &CorpusStats) {
    let diff = |a: usize, b: usize| {
        a.checked_sub(b)
            .expect("corpus counters only grow between releases") as f64
    };
    tracer.count(
        "text.corpus.stats_hits",
        diff(after.stats_hits, before.stats_hits),
    );
    tracer.count(
        "text.corpus.index_hits",
        diff(after.index_hits, before.index_hits),
    );
    tracer.count(
        "text.corpus.builds",
        diff(
            after.stats_attempts + after.index_attempts,
            before.stats_attempts + before.index_attempts,
        ),
    );
}

/// Runs `pair` through every layer under a `pair` span, with `pipeline`'s
/// configuration and the optional shared corpus the runner would use.
pub fn run_pair(
    tracer: &mut Tracer,
    pipeline: &JoinPipeline,
    pair: &ColumnPair,
    corpus: Option<&GramCorpus>,
) -> PairResult {
    tracer.span("pair", |t| compose(t, pipeline, pair, corpus))
}

fn compose(
    tracer: &mut Tracer,
    pipeline: &JoinPipeline,
    pair: &ColumnPair,
    corpus: Option<&GramCorpus>,
) -> PairResult {
    let config = pipeline.config();
    let synthesis = &config.synthesis;

    let candidates = tracer.span("matching", |_| match &config.matching {
        RowMatchingStrategy::NGram(matcher) => NGramMatcher::new(matcher.clone())
            .try_candidate_value_pairs(pair, corpus, None)
            .expect("generated pairs never fail matching"),
        RowMatchingStrategy::Golden => golden_value_pairs(pair),
    });
    tracer.count("matching.candidates", candidates.len() as f64);

    let cover = tracer.span("synthesis", |t| {
        let all = PairSet::from_strings(&candidates, &synthesis.normalize);
        let working = match synthesis.sample_size {
            Some(size) if size < all.len() => {
                all.subset(&sample_indices(all.len(), size, synthesis.sample_seed))
            }
            _ => all,
        };
        let generation = t.span("synthesis.generate", |_| {
            generate_transformations(&working, synthesis)
        });
        t.count("synthesis.unique", generation.unique as f64);

        let coverage = t.span("synthesis.coverage", |_| {
            compute_coverage_planned_budgeted(
                &generation.pool,
                &generation.transformations,
                &working,
                synthesis.unit_cache,
                synthesis.threads,
                synthesis.coverage_axis,
                None,
            )
            .expect("unbudgeted coverage cannot abort")
        });
        t.count("synthesis.trials", coverage.trials as f64);
        t.count("synthesis.cache_hits", coverage.cache_hits as f64);
        t.count(
            "synthesis.potential_trials",
            coverage.potential_trials as f64,
        );

        let rows_used = working.len();
        let survivors: Vec<ScoredTransformation> = t.span("synthesis.filter", |_| {
            let min_rows = min_rows_for_support(rows_used, synthesis.min_support);
            generation
                .transformations
                .iter()
                .zip(coverage.covered_rows)
                .filter(|(tr, rows)| {
                    rows.len() >= min_rows
                        && !(rows.len() <= 1 && tr.is_all_literal(&generation.pool))
                })
                .map(|(tr, rows)| ScoredTransformation {
                    transformation: generation.pool.resolve(tr),
                    covered: RowBitmap::from_sorted_rows(rows_used, &rows),
                })
                .collect()
        });
        t.count("synthesis.survivors", survivors.len() as f64);

        // The engine computes the top-k report on every run even though
        // the pipeline never reads it; the benchmark pays for it the same.
        t.span("synthesis.top_k", |_| {
            black_box(top_k(&survivors, synthesis.top_k))
        });
        let cover = t.span("synthesis.greedy", |_| {
            lazy_greedy_cover_budgeted(survivors, rows_used, None)
                .expect("unbudgeted selection cannot abort")
        });
        t.count("synthesis.cover_size", cover.len() as f64);
        cover
    });

    let transformations = cover.filter_by_support(config.join_min_support);
    let predicted_pairs = tracer.span("join.equi_join", |_| {
        pipeline.equi_join(pair, transformations.iter().map(|t| &t.transformation))
    });
    tracer.count("join.predicted_pairs", predicted_pairs.len() as f64);
    let metrics = evaluate_join(&predicted_pairs, &pair.golden);
    PairResult {
        transformations,
        predicted_pairs,
        metrics,
        candidate_pairs: candidates.len(),
    }
}
