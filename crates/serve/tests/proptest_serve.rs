//! Differential proptest gate for the serving layer: residency, eviction,
//! and admission must never change results.
//!
//! Across randomized request workloads (hot-skewed repeat sequences over
//! 1–3 distinct repositories) × byte budgets {unbounded, smaller than any
//! single column, half the workload's footprint, larger than the
//! workload} × runner thread budgets {1, 2, 4} (with 1 repeated, covering
//! rerun determinism):
//!
//! * **Warm is bit-identical to cold.** Every served request's outcome —
//!   per-pair predictions, metrics, transformation sets — equals the cold
//!   oracle: the same repository run on a *fresh* runner with no resident
//!   corpus. This holds under mid-stream eviction (the half-footprint
//!   budget evicts between requests while later requests are still
//!   queued) and under a budget too small for even one column (the cache
//!   ends every release empty).
//! * **The budget is hard at release boundaries.** After every release,
//!   `ServeStats::bytes_resident` is `<=` the configured budget.
//! * **Counters are deterministic.** The full per-request [`ServeStats`]
//!   sequence — hits, misses, inserts, evictions, resident bytes, queue
//!   depth — is identical across reruns and across runner thread budgets,
//!   because cache bookkeeping is serialized in request order.
//! * **Concurrent drains change nothing logical.** For a fixed submission
//!   sequence, draining the queue from {2, 4} threads keeps every
//!   per-ticket result bit-identical to a single-threaded drain, and the
//!   quiescent hits / misses / inserts equal the serial drain's — the
//!   reserve-time counter decisions are serialized by submission, so
//!   release interleaving cannot shuffle them. (Evictions and resident
//!   bytes are physical and only pinned under budgets where eviction
//!   cannot trigger.)

use proptest::prelude::*;
use tjoin_datasets::{RepositoryConfig, RequestWorkload, RequestWorkloadConfig};
use tjoin_join::{BatchJoinOutcome, BatchJoinRunner, JoinPipelineConfig};
use tjoin_serve::{JoinService, ServeConfig};
use tjoin_text::ServeStats;

/// Asserts two batch outcomes carry identical results: same report order,
/// same per-pair predicted pairs / metrics / candidate counts /
/// transformation sets / synthesis covers and counters, same aggregate
/// metrics. (Wall-clock fields, scheduling counters, and serve counters are
/// measurements, not results, and are exempt.)
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

fn workload(seed: u64, distinct: usize, requests: usize) -> RequestWorkload {
    RequestWorkloadConfig {
        distinct,
        requests,
        repository: RepositoryConfig::new(2, 10),
    }
    .generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn serving_matches_cold_oracle_under_every_budget_and_thread_count(
        seed in 0u64..1_000_000,
        distinct in 1usize..4,
        requests in 1usize..6,
    ) {
        let w = workload(seed, distinct, requests);
        let config = JoinPipelineConfig::default();

        // Cold oracle: every request on a fresh runner, no residency.
        let oracle: Vec<BatchJoinOutcome> = w
            .sequence
            .iter()
            .map(|&r| BatchJoinRunner::new(config.clone(), 2).run(&w.repositories[r]))
            .collect();

        // The workload's unbounded resident footprint, to size the
        // mid-stream-eviction budget.
        let footprint = {
            let service = JoinService::new(config.clone(), 2, ServeConfig::default());
            for &r in &w.sequence {
                prop_assert!(service.submit(w.repositories[r].clone()).is_ok());
            }
            service.drain();
            service.stats().bytes_resident
        };
        prop_assert!(footprint > 0, "n-gram serving must leave columns resident");

        let budgets = [
            None,                      // unbounded: no eviction ever
            Some(1),                   // smaller than any single column: always empty
            Some(footprint / 2 + 1),   // mid-stream eviction between requests
            Some(footprint * 2),       // roomy: everything stays resident
        ];
        for budget in budgets {
            let mut reference_stats: Option<Vec<ServeStats>> = None;
            // Threads {1, 2, 4}, with 1 repeated: the repeat pins rerun
            // determinism, the spread pins thread invariance.
            for threads in [1usize, 2, 4, 1] {
                let service = JoinService::new(
                    config.clone(),
                    threads,
                    ServeConfig { byte_budget: budget, ..ServeConfig::default() },
                );
                for &r in &w.sequence {
                    prop_assert!(service.submit(w.repositories[r].clone()).is_ok());
                }
                let outcomes = service.drain();
                prop_assert_eq!(outcomes.len(), w.sequence.len());
                let mut stats_sequence = Vec::new();
                for (i, (ticket, outcome)) in outcomes.iter().enumerate() {
                    prop_assert_eq!(*ticket, i as u64, "FIFO ticket order");
                    assert_outcomes_identical(
                        outcome,
                        &oracle[i],
                        &format!(
                            "request {i} (repository {}) under budget {budget:?} at {threads} threads",
                            w.sequence[i]
                        ),
                    );
                    let stats = outcome.serve.expect("service stamps serve stats");
                    if let Some(limit) = budget {
                        prop_assert!(
                            stats.bytes_resident <= limit,
                            "budget {} overshot after request {}: {} bytes resident",
                            limit, i, stats.bytes_resident
                        );
                    }
                    stats_sequence.push(stats);
                }
                match &reference_stats {
                    None => reference_stats = Some(stats_sequence),
                    Some(reference) => prop_assert_eq!(
                        &stats_sequence, reference,
                        "serve counters must be identical across thread budgets and reruns \
                         ({} threads, budget {:?})",
                        threads, budget
                    ),
                }
            }
        }
    }

    #[test]
    fn concurrent_drains_keep_results_exact_and_logical_counters_invariant(
        seed in 0u64..1_000_000,
        distinct in 1usize..3,
        requests in 2usize..6,
    ) {
        let w = workload(seed, distinct, requests);
        let config = JoinPipelineConfig::default();

        // A budget of one byte forces eviction (including of pinned
        // entries) between and *during* concurrent requests — the
        // adversarial case for insert accounting.
        for budget in [None, Some(1)] {
            let serve_config = ServeConfig { byte_budget: budget, ..ServeConfig::default() };

            // Serial oracle: same submissions, one drain thread.
            let service = JoinService::new(config.clone(), 2, serve_config.clone());
            for &r in &w.sequence {
                prop_assert!(service.submit(w.repositories[r].clone()).is_ok());
            }
            let oracle = service.drain();
            let oracle_stats = service.stats();

            for drain_threads in [2usize, 4] {
                let service = JoinService::new(config.clone(), 2, serve_config.clone());
                for &r in &w.sequence {
                    prop_assert!(service.submit(w.repositories[r].clone()).is_ok());
                }
                let mut outcomes = Vec::new();
                std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..drain_threads)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut mine = Vec::new();
                                while let Some(entry) = service.run_next() {
                                    mine.push(entry);
                                }
                                mine
                            })
                        })
                        .collect();
                    for worker in workers {
                        outcomes.extend(worker.join().expect("drain thread panicked"));
                    }
                });
                outcomes.sort_by_key(|&(ticket, _)| ticket);
                prop_assert_eq!(outcomes.len(), oracle.len(), "every ticket drained once");
                for ((ticket, outcome), (oracle_ticket, oracle_outcome)) in
                    outcomes.iter().zip(&oracle)
                {
                    prop_assert_eq!(ticket, oracle_ticket);
                    assert_outcomes_identical(
                        outcome,
                        oracle_outcome,
                        &format!(
                            "ticket {ticket} drained by {drain_threads} threads under budget {budget:?}"
                        ),
                    );
                }
                let stats = service.stats();
                let context = format!("{drain_threads} drain threads, budget {budget:?}");
                prop_assert_eq!(stats.hits, oracle_stats.hits, "hits ({})", &context);
                prop_assert_eq!(stats.misses, oracle_stats.misses, "misses ({})", &context);
                prop_assert_eq!(stats.inserts, oracle_stats.inserts, "inserts ({})", &context);
                if budget.is_none() {
                    // Without a budget eviction never runs, so even the
                    // physical counters are pinned.
                    prop_assert_eq!(stats.evictions, 0, "evictions ({})", &context);
                    prop_assert_eq!(
                        stats.bytes_resident, oracle_stats.bytes_resident,
                        "resident bytes ({})", &context
                    );
                }
            }
        }
    }
}
