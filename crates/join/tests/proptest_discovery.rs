//! Differential suite for anchor-prune discovery.
//!
//! Across random generated repositories (3–6 pairs × 8–16 rows) × decoy
//! fractions {0, 0.25, 0.5, 0.75} × {1, 2, 4} threads (runner and
//! signature-pass alike), four invariants are proven against oracles:
//!
//! * **The prune is exactly anchor disjointness.** A pair is pruned iff
//!   the sets of normalized `n_min`-character substrings of its two
//!   columns are disjoint — a naive `chars()`-window oracle, checked both
//!   ways (no pair pruned that shares a substring, no pair run that shares
//!   none), over the repository and every source × target re-pairing.
//! * **Shortlist recall is 1.0.** Every pair the full brute-force
//!   all-pairs batch run can join (non-empty predicted pairs) appears in
//!   the shortlist — the soundness argument of `tjoin-discovery`, checked
//!   differentially rather than assumed.
//! * **The shortlist is deterministic and thread-invariant**, with
//!   survivors in `(shared anchors desc, index asc)` order.
//! * **`discover_and_run` is the plain runner on the shortlist.** Its
//!   batch outcome is bit-identical to `BatchJoinRunner::run` over the
//!   ranked pair list.

use proptest::prelude::*;
use std::collections::HashSet;
use tjoin_datasets::{ColumnPair, RepositoryConfig};
use tjoin_discovery::shortlist_repository;
use tjoin_join::{
    BatchJoinOutcome, BatchJoinRunner, DiscoveryConfig, JoinPipelineConfig, RepositoryShortlist,
};
use tjoin_text::{normalize_for_matching, GramCorpus, NormalizeOptions};

/// The naive anchor set: every `n`-character window of every normalized
/// cell, as text.
fn substrings(cells: &[String], n: usize) -> HashSet<String> {
    let options = NormalizeOptions::default();
    let mut set = HashSet::new();
    for cell in cells {
        let chars: Vec<char> = normalize_for_matching(cell, &options).chars().collect();
        for window in chars.windows(n) {
            set.insert(window.iter().collect());
        }
    }
    set
}

/// Asserts the shortlist is exactly the naive prune: pruned iff the two
/// columns share no `n_min`-character substring, every survivor's
/// `shared_anchors` is the size of that intersection, and survivors run in
/// `(shared anchors desc, index asc)` order.
fn assert_naive_prune(shortlist: &RepositoryShortlist, repository: &[ColumnPair], n_min: usize) {
    assert_eq!(shortlist.considered, repository.len());
    assert!(shortlist.pruned_by_budget.is_empty());
    let pruned: HashSet<usize> = shortlist.pruned.iter().map(|entry| entry.index).collect();
    let ranked: HashSet<usize> = shortlist.ranked.iter().map(|entry| entry.index).collect();
    assert_eq!(pruned.len() + ranked.len(), repository.len(), "each pair has one verdict");
    for (index, pair) in repository.iter().enumerate() {
        let shared = substrings(&pair.source, n_min)
            .intersection(&substrings(&pair.target, n_min))
            .count();
        assert_eq!(pruned.contains(&index), shared == 0, "verdict of pair {index}");
        if let Some(entry) = shortlist.ranked.iter().find(|entry| entry.index == index) {
            assert_eq!(entry.shared_anchors, shared, "shared anchors of pair {index}");
        }
    }
    let order: Vec<(std::cmp::Reverse<usize>, usize)> = shortlist
        .ranked
        .iter()
        .map(|entry| (std::cmp::Reverse(entry.shared_anchors), entry.index))
        .collect();
    assert!(order.windows(2).all(|w| w[0] < w[1]), "ranked order: {order:?}");
}

/// Asserts two batch outcomes carry identical results: same report order,
/// same per-pair predicted pairs / metrics / candidate counts /
/// transformation sets / synthesis covers and counters, same aggregate
/// metrics. (Wall-clock fields and scheduling counters are measurements,
/// not results, and are exempt.)
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
        assert_eq!(
            ra.outcome.synthesis.cover, rb.outcome.synthesis.cover,
            "{context}: synthesis cover of {}",
            ra.name
        );
        // Every synthesis counter matches; the timings are measurements.
        let (mut sa, sb) = (ra.outcome.synthesis.stats.clone(), &rb.outcome.synthesis.stats);
        sa.timings = sb.timings;
        assert_eq!(&sa, sb, "{context}: synthesis counters of {}", ra.name);
    }
    assert_eq!(a.metrics.micro, b.metrics.micro, "{context}: micro metrics");
    assert_eq!(a.metrics.macro_f1, b.metrics.macro_f1, "{context}: macro F1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn shortlist_recall_is_one_and_discover_and_run_matches_the_plain_runner(
        seed in 0u64..1_000_000,
        pairs in 3usize..7,
        rows in 8usize..17,
        decoy_choice in 0usize..4,
    ) {
        let decoys = [0.0, 0.25, 0.5, 0.75][decoy_choice];
        let repository = RepositoryConfig::new(pairs, rows).with_decoys(decoys).generate(seed);
        let config = JoinPipelineConfig::paper_default();

        // Brute-force all-pairs oracle: the full pipeline over EVERY pair.
        // A pair is truly joinable when that run predicts row pairs for it.
        let all_pairs = BatchJoinRunner::new(config.clone(), 2).run(&repository);
        let joinable: Vec<&str> = all_pairs
            .reports
            .iter()
            .filter(|r| !r.outcome.predicted_pairs.is_empty())
            .map(|r| r.name.as_str())
            .collect();

        let mut reference: Option<RepositoryShortlist> = None;
        for threads in [1usize, 2, 4] {
            let runner = BatchJoinRunner::new(config.clone(), threads);
            let discovery = DiscoveryConfig::paper_default().with_threads(threads);
            let discovered = runner.discover_and_run(&repository, &discovery);

            // Recall 1.0: no pipeline-joinable pair may be pruned.
            for name in &joinable {
                prop_assert!(
                    discovered.shortlist.ranked.iter().any(|entry| entry.name == *name),
                    "pipeline-joinable pair {} pruned at {} threads (seed {})",
                    name, threads, seed
                );
            }
            // Fault-free runs never fall back to conservative retention.
            prop_assert!(
                discovered.shortlist.ranked.iter().all(|entry| !entry.signature_failed),
                "unexpected signature failure at {} threads", threads
            );

            // The discovered outcome is the plain runner on the shortlist.
            let sublist: Vec<ColumnPair> = discovered
                .shortlist
                .ranked
                .iter()
                .map(|entry| repository[entry.index].clone())
                .collect();
            let plain = runner.run(&sublist);
            assert_outcomes_identical(
                &discovered.outcome,
                &plain,
                &format!("discover_and_run vs plain run at {threads} threads (seed {seed})"),
            );

            // Shortlist determinism and thread invariance.
            match &reference {
                None => reference = Some(discovered.shortlist.clone()),
                Some(reference) => prop_assert_eq!(
                    &discovered.shortlist, reference,
                    "shortlist diverged at {} threads (seed {})", threads, seed
                ),
            }
        }

        // The prune is exactly naive n_min-substring disjointness, on the
        // repository and on every source × target re-pairing of it.
        let n_min = DiscoveryConfig::paper_default().n_min;
        let shortlist = reference.expect("three thread counts ran");
        assert_naive_prune(&shortlist, &repository, n_min);
        let crossed: Vec<ColumnPair> = repository
            .iter()
            .flat_map(|s| {
                repository.iter().map(move |t| ColumnPair {
                    name: format!("{}→{}", s.name, t.name),
                    source: s.source.clone(),
                    target: t.target.clone(),
                    golden: Vec::new(),
                })
            })
            .collect();
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let discovery = DiscoveryConfig::paper_default().with_threads(2);
        assert_naive_prune(&shortlist_repository(&crossed, &corpus, &discovery), &crossed, n_min);
    }
}
