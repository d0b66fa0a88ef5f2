//! Budget-degradation suite for the batch layer (no features required):
//! cap-based budgets are charged at pipeline admission, so which pairs
//! overrun is a pure function of the input — deterministic, thread-
//! invariant, and identical between the work-stealing driver and the
//! static-split oracle. Over-budget pairs degrade to `TimedOut` with their
//! completed-phase data intact; in-budget neighbors are untouched.

use tjoin_datasets::ColumnPair;
use tjoin_join::{BatchJoinRunner, JoinPipelineConfig, PairPhase, PairStatus};
use tjoin_text::{BudgetExceeded, RunBudget};

/// Three joinable pairs of known sizes: 4, 8, and 16 rows per side.
fn sized_repository() -> Vec<ColumnPair> {
    [4usize, 8, 16]
        .into_iter()
        .map(|rows| {
            let source: Vec<String> =
                (0..rows).map(|i| format!("last{i:02}r{rows}, first{i:02}")).collect();
            let target: Vec<String> =
                (0..rows).map(|i| format!("f{i:02} last{i:02}r{rows}")).collect();
            ColumnPair::aligned(format!("rows-{rows:02}"), source, target)
        })
        .collect()
}

#[test]
fn row_cap_overruns_are_deterministic_and_thread_invariant() {
    let repository = sized_repository();
    // 20 admitted rows per pair (source + target): 4- and 8-row pairs fit
    // (8 and 16 charged), the 16-row pair (32 charged) does not.
    let budget = RunBudget { max_rows: Some(20), ..RunBudget::default() };
    let oracle = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 1)
        .with_budget(budget)
        .run_static(&repository);
    assert_eq!(oracle.faults.ok_pairs, 2);
    assert_eq!(oracle.faults.timed_out_pairs, 1);
    for threads in [1usize, 2, 4] {
        for run in [
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .with_budget(budget)
                .run(&repository),
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .with_budget(budget)
                .run_static(&repository),
        ] {
            assert_eq!(run.faults, oracle.faults, "at {threads} threads");
            for (rr, ro) in run.reports.iter().zip(&oracle.reports) {
                assert_eq!(rr.name, ro.name);
                assert_eq!(rr.status, ro.status, "{} at {threads} threads", rr.name);
                assert_eq!(rr.outcome.predicted_pairs, ro.outcome.predicted_pairs);
                assert_eq!(rr.outcome.metrics, ro.outcome.metrics);
            }
        }
    }
    // The overrun is attributed to admission (before matching ran) with
    // the rows axis, and carries the empty-phases outcome.
    let big = &oracle.reports[2];
    assert_eq!(
        big.status,
        PairStatus::TimedOut { phase: PairPhase::Matching, exceeded: BudgetExceeded::Rows }
    );
    assert_eq!(big.outcome.candidate_pairs, 0);
    assert!(big.outcome.predicted_pairs.is_empty());
    assert!(big.outcome.transformations.transformations.is_empty());
    // In-budget pairs still join.
    assert!(oracle.reports[0].outcome.metrics.f1 > 0.8);
    assert!(oracle.reports[1].outcome.metrics.f1 > 0.8);
}

#[test]
fn byte_cap_overruns_are_deterministic_and_thread_invariant() {
    let repository = sized_repository();
    // The 4-row pair carries ~150 cell bytes; the larger two exceed 400.
    let budget = RunBudget { max_bytes: Some(400), ..RunBudget::default() };
    let oracle = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 1)
        .with_budget(budget)
        .run_static(&repository);
    let expected: Vec<bool> = repository
        .iter()
        .map(|pair| {
            let bytes: usize = pair
                .source
                .iter()
                .chain(pair.target.iter())
                .map(|cell| cell.len())
                .sum();
            bytes as u64 <= 400
        })
        .collect();
    assert!(expected[0], "smallest pair must fit the cap for the test to bite");
    assert!(!expected[2], "largest pair must exceed the cap");
    for threads in [1usize, 2, 4] {
        let run = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
            .with_budget(budget)
            .run(&repository);
        assert_eq!(run.faults, oracle.faults, "at {threads} threads");
        for (report, fits) in run.reports.iter().zip(&expected) {
            if *fits {
                assert!(report.status.is_ok(), "{}: {:?}", report.name, report.status);
            } else {
                assert_eq!(
                    report.status,
                    PairStatus::TimedOut {
                        phase: PairPhase::Matching,
                        exceeded: BudgetExceeded::Bytes,
                    },
                    "{}",
                    report.name
                );
            }
        }
    }
}

#[test]
fn unlimited_budget_is_bit_identical_to_no_budget() {
    let repository = sized_repository();
    for threads in [1usize, 4] {
        let plain =
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads).run(&repository);
        let budgeted = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
            .with_budget(RunBudget::default())
            .run(&repository);
        assert_eq!(plain.faults, budgeted.faults);
        for (rp, rb) in plain.reports.iter().zip(&budgeted.reports) {
            assert_eq!(rp.status, rb.status);
            assert_eq!(rp.outcome.predicted_pairs, rb.outcome.predicted_pairs);
            assert_eq!(rp.outcome.metrics, rb.outcome.metrics);
            assert_eq!(rp.outcome.candidate_pairs, rb.outcome.candidate_pairs);
            assert_eq!(rp.outcome.transformations, rb.outcome.transformations);
        }
    }
}

#[test]
fn zero_deadline_degrades_every_pair_without_killing_the_run() {
    let repository = sized_repository();
    let budget = RunBudget::default().with_deadline(std::time::Duration::ZERO);
    for threads in [1usize, 4] {
        let run = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
            .with_budget(budget)
            .run(&repository);
        assert_eq!(run.faults.timed_out_pairs, repository.len(), "at {threads} threads");
        assert_eq!(run.faults.ok_pairs, 0);
        for report in &run.reports {
            assert!(
                matches!(
                    report.status,
                    PairStatus::TimedOut { exceeded: BudgetExceeded::Deadline, .. }
                ),
                "{}: {:?}",
                report.name,
                report.status
            );
        }
        // Aggregates still computed over the degraded reports.
        assert_eq!(run.metrics.pairs, repository.len());
        assert_eq!(run.metrics.joined_pairs, 0);
    }
}
