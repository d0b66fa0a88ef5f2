//! Differential suite for the repository-wide gram corpus and the
//! work-stealing batch scheduler.
//!
//! Two invariants are proven against retained oracles, across randomized
//! repositories (optionally skewed toward one dominant pair, optionally
//! sharing one source column across every pair after the first — the two
//! compose, so a dominant pair rides alongside corpus-contending peers) ×
//! {1, 2, 4} threads:
//!
//! * **Work stealing never changes results.** `BatchJoinRunner::run` (the
//!   work-stealing pair queue + shared `GramCorpus`) must produce exactly
//!   the per-pair outcomes, report ordering, and aggregate
//!   `RepositoryMetrics` of the retained static-split driver
//!   `BatchJoinRunner::run_static` (per-call artifacts, contiguous up-front
//!   chunks) — at any thread budget on either side.
//! * **Corpus reuse never changes matches.** The matcher over a shared
//!   `GramCorpus` (`try_find_candidates` with a corpus) must be
//!   bit-identical — same pairs, same order — to its per-call path and to
//!   the serial oracle `find_candidates_reference`, and its intern/build
//!   counters must be exact (one normalization per distinct column) and
//!   thread-invariant.
//!
//! The `#[ignore]`d test at the bottom is the slow skewed repository-scale
//! sweep, run in CI via `cargo test -q -p tjoin-join --release -- --ignored`
//! (the existing slow slot).

use proptest::prelude::*;
use tjoin_datasets::{ColumnPair, RepositoryConfig};
use tjoin_join::{BatchJoinOutcome, BatchJoinRunner, JoinPipelineConfig};
use tjoin_matching::reference::find_candidates_reference;
use tjoin_matching::{NGramMatcher, NGramMatcherConfig};
use tjoin_text::GramCorpus;

/// One generated row: `(source_value, target_value)` — the same row-shape
/// vocabulary as `proptest_join.rs` (coverable, promiscuous, short, empty,
/// duplicate-prone, gibberish, copy).
fn row_from(kind: u8, seed: u64) -> (String, String) {
    let a = seed % 50;
    let b = (seed / 50) % 37;
    match kind % 8 {
        0 => (format!("last{a:02}, first{b:02}"), format!("f{b:02} last{a:02}")),
        1 => (format!("name{a:02}, x{b:02}"), format!("x{b:02} name{a:02} common")),
        2 => ("ab".into(), format!("f{b:02} last{a:02}")),
        3 => (String::new(), format!("t{a:02}")),
        4 => (format!("last{a:02}, first{b:02}"), String::new()),
        5 => (format!("dup{:02}, val", seed % 4), format!("dup{:02}", seed % 4)),
        6 => (format!("last{a:02}, first{b:02}"), format!("zz-{:04}-qq", seed % 10_000)),
        _ => (format!("same value {a:02}"), format!("same value {a:02}")),
    }
}

/// Builds a repository from per-pair `(kind, seed)` specs. `skew`
/// multiplies the first pair's row count (the dominant-pair shape the
/// work-stealing queue exists for); `shared_source` gives every pair
/// *after the first* the same source column (maximal corpus reuse), so the
/// two knobs compose: a dominant unshared pair can ride alongside a block
/// of peers contending on one shared column's corpus entry.
fn build_repository(
    specs: &[(u8, u64)],
    base_rows: usize,
    skew: usize,
    shared_source: bool,
) -> Vec<ColumnPair> {
    let column = |kind: u8, seed: u64, rows: usize| -> (Vec<String>, Vec<String>) {
        let mut source = Vec::with_capacity(rows);
        let mut target = Vec::with_capacity(rows);
        for row in 0..rows {
            let (s, t) = row_from(kind, seed.wrapping_add(row as u64 * 9973));
            source.push(s);
            target.push(t);
        }
        (source, target)
    };
    let shared = specs
        .first()
        .map(|&(kind, seed)| column(kind, seed, base_rows).0);
    specs
        .iter()
        .enumerate()
        .map(|(i, &(kind, seed))| {
            let rows = if i == 0 { base_rows * skew.max(1) } else { base_rows };
            let (source, target) = column(kind, seed, rows);
            // Pairs after the first share one source column (same row
            // count by construction); the first pair keeps its own —
            // possibly skew-inflated — source.
            let source = match (&shared, shared_source, i) {
                (Some(shared), true, 1..) => shared.clone(),
                _ => source,
            };
            ColumnPair::aligned(format!("pair-{i:02}"), source, target)
        })
        .collect()
}

/// Asserts two batch outcomes carry identical results: same report order,
/// same per-pair predicted pairs / metrics / candidate counts /
/// transformation sets, same aggregate metrics. (Wall-clock fields and
/// scheduling counters are measurements, not results, and are exempt.)
fn assert_outcomes_identical(a: &BatchJoinOutcome, b: &BatchJoinOutcome, context: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{context}: report count");
    assert_eq!(a.faults, b.faults, "{context}: fault tallies");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.name, rb.name, "{context}: report order");
        assert_eq!(ra.status, rb.status, "{context}: status of {}", ra.name);
        assert_eq!(
            ra.outcome.predicted_pairs, rb.outcome.predicted_pairs,
            "{context}: predicted pairs of {}",
            ra.name
        );
        assert_eq!(ra.outcome.metrics, rb.outcome.metrics, "{context}: metrics of {}", ra.name);
        assert_eq!(
            ra.outcome.candidate_pairs, rb.outcome.candidate_pairs,
            "{context}: candidates of {}",
            ra.name
        );
        assert_eq!(
            ra.outcome.transformations, rb.outcome.transformations,
            "{context}: transformations of {}",
            ra.name
        );
    }
    assert_eq!(a.metrics.pairs, b.metrics.pairs, "{context}");
    assert_eq!(a.metrics.joined_pairs, b.metrics.joined_pairs, "{context}");
    assert_eq!(a.metrics.micro, b.metrics.micro, "{context}");
    assert_eq!(a.metrics.macro_f1, b.metrics.macro_f1, "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Work-stealing batch outcomes equal the static-split oracle's on
    /// random (possibly skewed, possibly column-sharing) repositories at
    /// every thread budget, and the corpus counters are thread-invariant.
    #[test]
    fn work_stealing_batch_matches_static_oracle(
        specs in prop::collection::vec((0u8..8, 0u64..1_000_000), 1..5),
        base_rows in 1usize..7,
        skew_sel in 0u8..3,
        shared_sel in 0u8..2,
    ) {
        let skew = [1usize, 3, 5][skew_sel as usize % 3];
        let repository = build_repository(&specs, base_rows, skew, shared_sel == 1);
        let config = JoinPipelineConfig::paper_default();
        let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
        let mut corpus_counts = Vec::new();
        for threads in [1usize, 2, 4] {
            let runner = BatchJoinRunner::new(config.clone(), threads);
            let stealing = runner.run(&repository);
            assert_outcomes_identical(&stealing, &oracle, &format!("ws@{threads}"));
            let static_split = runner.run_static(&repository);
            assert_outcomes_identical(&static_split, &oracle, &format!("static@{threads}"));
            // Scheduling accounting: every task ran exactly once within
            // the budget.
            let s = &stealing.scheduler;
            prop_assert_eq!(s.tasks_per_worker.iter().sum::<usize>(), repository.len());
            prop_assert!(s.workers * s.inner_threads <= threads);
            prop_assert!(s.stolen_tasks <= repository.len());
            corpus_counts.push(s.corpus.expect("n-gram batch builds a corpus"));
        }
        // Interning is content-driven: the counters cannot depend on the
        // thread count.
        prop_assert_eq!(corpus_counts[0], corpus_counts[1]);
        prop_assert_eq!(corpus_counts[1], corpus_counts[2]);
        // Every pair references 2 columns; distinct + cache-served column
        // requests must account for exactly that.
        let c = corpus_counts[0];
        prop_assert_eq!(c.columns_interned + c.column_hits, 2 * repository.len());
        if shared_sel == 1 && repository.len() > 2 {
            // Pairs 1.. share one source column: after one of them interns
            // it, the rest are served from cache.
            prop_assert!(c.column_hits >= repository.len() - 2);
        }
    }

    /// The matcher over a shared corpus is bit-identical to its per-call
    /// path and to the serial reference oracle — including when the corpus
    /// is reused across several pairs and repeated calls.
    #[test]
    fn corpus_matcher_matches_per_call_and_reference(
        specs in prop::collection::vec((0u8..8, 0u64..1_000_000), 1..4),
        rows in 1usize..12,
    ) {
        let repository = build_repository(&specs, rows, 1, false);
        let config = NGramMatcherConfig::default();
        let corpus = GramCorpus::new(config.normalize);
        for pair in &repository {
            let oracle = find_candidates_reference(&config, pair);
            let matcher = NGramMatcher::new(config.clone());
            prop_assert_eq!(
                &matcher.try_find_candidates(pair, None, None).unwrap(), &oracle,
                "per-call matcher diverged on {}", pair.name
            );
            for round in 0..3 {
                prop_assert_eq!(
                    &matcher.try_find_candidates(pair, Some(&corpus), None).unwrap(), &oracle,
                    "corpus matcher diverged on {} in round {}", pair.name, round
                );
            }
        }
        // Exactly one interning per distinct column, however many calls.
        let stats = corpus.stats();
        let mut distinct: Vec<Vec<String>> = Vec::new();
        for pair in &repository {
            for column in [&pair.source, &pair.target] {
                if !distinct.contains(column) {
                    distinct.push(column.clone());
                }
            }
        }
        prop_assert_eq!(stats.columns_interned, distinct.len());
        prop_assert_eq!(
            stats.columns_interned + stats.column_hits,
            2 * repository.len() * 3 // one column() per side per round
        );
    }
}

/// A column referenced by k pairs is normalized and gram-indexed exactly
/// once — the amortization claim, checked by evaluation counts (robust on
/// the one-core box: no timing involved).
#[test]
fn shared_column_interned_exactly_once_across_k_pairs() {
    let k = 5usize;
    let shared_source: Vec<String> = (0..8)
        .map(|i| format!("last{i:02}, first{i:02}"))
        .collect();
    let repository: Vec<ColumnPair> = (0..k)
        .map(|p| {
            let target: Vec<String> = (0..8).map(|i| format!("f{i:02}.{p} last{i:02}")).collect();
            ColumnPair::aligned(format!("k-{p}"), shared_source.clone(), target)
        })
        .collect();
    for threads in [1usize, 4] {
        let batch =
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads).run(&repository);
        let corpus = batch.scheduler.corpus.expect("corpus present");
        // 1 shared source + k distinct targets interned; the source's k-1
        // later references are cache hits (normalizations saved), and its
        // ColumnStats is built once and hit k-1 times.
        assert_eq!(corpus.columns_interned, 1 + k, "at {threads} threads");
        assert_eq!(corpus.column_hits, k - 1, "at {threads} threads");
        assert_eq!(corpus.stats_built, 1 + k);
        assert_eq!(corpus.stats_hits, k - 1);
        assert_eq!(corpus.indexes_built, k);
        assert_eq!(corpus.index_hits, 0);
        let oracle =
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads).run_static(&repository);
        assert_outcomes_identical(&batch, &oracle, "shared-column");
        assert!(batch.metrics.joined_pairs >= 1);
    }
}

/// The slow skewed repository-scale sweep (the CI `--ignored` release
/// slot): a generated repository whose first pair is ~6x its peers, driven
/// by the work-stealing runner at {1, 2, 4} threads against the
/// static-split oracle, with thread-invariant corpus counters.
#[test]
#[ignore]
fn large_skewed_repository_sweep_matches_static_oracle() {
    let repository = RepositoryConfig { skew: 6.0, ..RepositoryConfig::new(8, 100) }.generate(21);
    assert!(
        repository[0].source.len() >= 5 * repository[1].source.len(),
        "skew generator failed to produce a dominant pair: {} vs {}",
        repository[0].source.len(),
        repository[1].source.len()
    );
    let config = JoinPipelineConfig::paper_default();
    let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
    // Static-split thread-invariance is proptest-covered above; the sweep
    // re-checks it once at the full budget to bound CI wall-clock.
    let static_4 = BatchJoinRunner::new(config.clone(), 4).run_static(&repository);
    assert_outcomes_identical(&static_4, &oracle, "skewed static@4");
    let mut corpus_counts = Vec::new();
    for threads in [1usize, 2, 4] {
        let runner = BatchJoinRunner::new(config.clone(), threads);
        let stealing = runner.run(&repository);
        assert_outcomes_identical(&stealing, &oracle, &format!("skewed ws@{threads}"));
        let s = &stealing.scheduler;
        assert_eq!(s.tasks_per_worker.iter().sum::<usize>(), repository.len());
        assert!(s.workers * s.inner_threads <= threads);
        corpus_counts.push(s.corpus.expect("corpus present"));
    }
    assert_eq!(corpus_counts[0], corpus_counts[1]);
    assert_eq!(corpus_counts[1], corpus_counts[2]);
    assert_eq!(
        corpus_counts[0].columns_interned + corpus_counts[0].column_hits,
        2 * repository.len()
    );
    // The generated repository must actually join (the sweep is vacuous on
    // an unjoinable workload).
    assert!(
        oracle.metrics.joined_pairs >= 5,
        "repository unexpectedly unjoinable: {:?}",
        oracle.metrics
    );
}
