//! Differential fault-injection suite for the batch containment layer
//! (compiled only with `--features fault-injection`).
//!
//! The gate: run the work-stealing batch driver under a deterministic
//! [`FaultPlan`] with K injected faults and prove, across random
//! repositories × {1, 2, 4} threads, that
//!
//! * exactly the panic-faulted pairs report [`PairStatus::Failed`] — no
//!   fault ever takes down a neighbor (columns are made pair-unique here,
//!   so sticky corpus failures stay per-pair; the shared-column spillover
//!   semantics get their own targeted test);
//! * every non-faulted pair's outcome is **bit-identical** to the
//!   fault-free static@1 oracle;
//! * the [`BatchFaultStats`] tallies and per-pair statuses are
//!   thread-invariant;
//! * no panic ever escapes `run_with_faults` (every test below returning
//!   normally is the proof — the scheduler re-raises only its own bugs).
//!
//! `PoisonLock` faults are the resilience half: a poisoned report slot or
//! corpus cache lock is *recovered*, so those runs must be entirely `Ok`
//! and bit-identical to the oracle.

use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;
use tjoin_datasets::ColumnPair;
use tjoin_join::{
    BatchJoinOutcome, BatchJoinRunner, JoinPipelineConfig, PairPhase, PairStatus,
};
use tjoin_text::{FaultKind, FaultPlan, FaultSite, RunBudget};

/// Every *pipeline-phase* injection site. `FaultSite::SchedulerTask` is
/// deliberately excluded: it fires outside every guarded phase, so its
/// failures attribute to `PairPhase::Scheduler` rather than the phase the
/// assertions here expect — it gets its own targeted regression test below.
const SITES: [FaultSite; 8] = [
    FaultSite::MatchPhase,
    FaultSite::CorpusColumnBuild,
    FaultSite::CorpusStatsBuild,
    FaultSite::CorpusIndexBuild,
    FaultSite::SynthesisPhase,
    FaultSite::CoverageScan,
    FaultSite::JoinPhase,
    FaultSite::SlotStore,
];

/// Silences the panic output of *injected* panics (they are the point of
/// this suite and would otherwise flood the test log); every other panic —
/// assertion failures included — still reaches the previous hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected panic") && !message.contains("poisoning mutex") {
                previous(info);
            }
        }));
    });
}

/// A joinable `"last, first" -> "f last"` repository whose every value
/// carries its pair index, so no two pairs share a column and a sticky
/// corpus failure can only fail the pair it was injected into.
fn build_repository(seeds: &[u64], rows: usize) -> Vec<ColumnPair> {
    seeds
        .iter()
        .enumerate()
        .map(|(p, &seed)| {
            let mut source = Vec::with_capacity(rows);
            let mut target = Vec::with_capacity(rows);
            for row in 0..rows {
                let s = seed.wrapping_add(row as u64 * 9973);
                let (a, b) = (s % 50, (s / 50) % 37);
                source.push(format!("last{a:02}p{p}, first{b:02}"));
                target.push(format!("f{b:02} last{a:02}p{p}"));
            }
            ColumnPair::aligned(format!("pair-{p:02}"), source, target)
        })
        .collect()
}

/// Asserts a non-faulted report equals the oracle's, bit for bit.
fn assert_report_matches_oracle(run: &BatchJoinOutcome, oracle: &BatchJoinOutcome, i: usize) {
    let (ra, rb) = (&run.reports[i], &oracle.reports[i]);
    assert_eq!(ra.name, rb.name);
    assert_eq!(ra.status, PairStatus::Ok, "{}: unexpected status", ra.name);
    assert_eq!(ra.outcome.predicted_pairs, rb.outcome.predicted_pairs, "{}", ra.name);
    assert_eq!(ra.outcome.metrics, rb.outcome.metrics, "{}", ra.name);
    assert_eq!(ra.outcome.candidate_pairs, rb.outcome.candidate_pairs, "{}", ra.name);
    assert_eq!(ra.outcome.transformations, rb.outcome.transformations, "{}", ra.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The differential fault gate (see the module docs).
    #[test]
    fn injected_faults_are_contained_and_neighbors_bit_identical(
        seeds in prop::collection::vec(0u64..1_000_000, 2..6),
        rows in 2usize..8,
        faults in prop::collection::vec((0usize..8, 0usize..8, 0u8..2), 0..6),
    ) {
        quiet_injected_panics();
        let repository = build_repository(&seeds, rows);
        let config = JoinPipelineConfig::paper_default();
        let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);

        let mut plan = FaultPlan::new();
        let mut used: HashSet<(usize, FaultSite)> = HashSet::new();
        let mut expected_failed: HashSet<usize> = HashSet::new();
        for &(pair_sel, site_sel, kind_sel) in &faults {
            let is_panic = kind_sel == 1;
            let pair = pair_sel % repository.len();
            let site = SITES[site_sel % SITES.len()];
            if !used.insert((pair, site)) {
                continue; // one fault per (pair, site): keep semantics unambiguous
            }
            let kind = if is_panic { FaultKind::Panic } else { FaultKind::PoisonLock };
            plan = plan.inject(pair, site, kind);
            // `fire` never runs at SlotStore (it is a poison-only site), so
            // a Panic there is inert; every other site's Panic fails its
            // pair. PoisonLock anywhere is recovered.
            if is_panic && site != FaultSite::SlotStore {
                expected_failed.insert(pair);
            }
        }

        let mut status_runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let run = BatchJoinRunner::new(config.clone(), threads)
                .run_with_faults(&repository, &plan);
            prop_assert_eq!(run.reports.len(), repository.len());
            prop_assert_eq!(
                run.faults.failed_pairs, expected_failed.len(),
                "tally mismatch at {} threads", threads
            );
            prop_assert_eq!(run.faults.timed_out_pairs, 0);
            prop_assert_eq!(
                run.faults.ok_pairs,
                repository.len() - expected_failed.len()
            );
            for i in 0..repository.len() {
                if expected_failed.contains(&i) {
                    prop_assert!(
                        matches!(run.reports[i].status, PairStatus::Failed(_)),
                        "pair {} should have failed at {} threads, got {:?}",
                        i, threads, run.reports[i].status
                    );
                } else {
                    assert_report_matches_oracle(&run, &oracle, i);
                }
            }
            status_runs.push(
                run.reports.iter().map(|r| r.status.clone()).collect::<Vec<_>>()
            );
        }
        // Statuses — including the deterministic panic messages — cannot
        // depend on the thread count.
        prop_assert_eq!(&status_runs[0], &status_runs[1]);
        prop_assert_eq!(&status_runs[1], &status_runs[2]);
    }
}

/// A panic at each fire site lands in the right phase of the right pair,
/// with the injected message preserved verbatim through containment.
#[test]
fn panic_sites_attribute_to_their_phase() {
    quiet_injected_panics();
    let repository = build_repository(&[11, 22, 33], 4);
    let config = JoinPipelineConfig::paper_default();
    let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
    let cases = [
        (FaultSite::MatchPhase, PairPhase::Matching, "injected panic at MatchPhase (pair 1)"),
        (FaultSite::SynthesisPhase, PairPhase::Synthesis, "injected panic at SynthesisPhase"),
        (FaultSite::CoverageScan, PairPhase::Synthesis, "injected panic at CoverageScan"),
        (FaultSite::JoinPhase, PairPhase::Join, "injected panic at JoinPhase"),
        (FaultSite::CorpusColumnBuild, PairPhase::Matching, "corpus column build failed"),
        (FaultSite::CorpusStatsBuild, PairPhase::Matching, "corpus stats build failed"),
        (FaultSite::CorpusIndexBuild, PairPhase::Matching, "corpus index build failed"),
    ];
    for (site, phase, needle) in cases {
        let plan = FaultPlan::new().inject(1, site, FaultKind::Panic);
        for threads in [1usize, 2] {
            let run = BatchJoinRunner::new(config.clone(), threads)
                .run_with_faults(&repository, &plan);
            match &run.reports[1].status {
                PairStatus::Failed(error) => {
                    assert_eq!(error.phase, phase, "{site:?} at {threads} threads");
                    assert!(
                        error.message.contains(needle),
                        "{site:?}: message {:?} missing {:?}",
                        error.message,
                        needle
                    );
                }
                other => panic!("{site:?} at {threads} threads: expected Failed, got {other:?}"),
            }
            assert_report_matches_oracle(&run, &oracle, 0);
            assert_report_matches_oracle(&run, &oracle, 2);
        }
    }
}

/// An injected slow phase plus a deadline degrades that pair to `TimedOut`
/// in the stalled phase; its neighbors (with their own fresh tokens)
/// finish untouched.
#[test]
fn slow_phase_with_deadline_times_out_only_the_stalled_pair() {
    quiet_injected_panics();
    let repository = build_repository(&[5, 7], 4);
    // Each phase's own serial loop is what observes the trip: the matcher's
    // build-step/row checks, the synthesis engine's coverage and selection
    // checks, and the equi-join's per-transformation check.
    for (site, phase) in [
        (FaultSite::MatchPhase, PairPhase::Matching),
        (FaultSite::SynthesisPhase, PairPhase::Synthesis),
        (FaultSite::JoinPhase, PairPhase::Join),
    ] {
        let plan = FaultPlan::new().inject(0, site, FaultKind::Slow(Duration::from_secs(1)));
        for threads in [1usize, 2] {
            let context = format!("{site} at {threads} threads");
            let runner = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .with_budget(RunBudget::default().with_deadline(Duration::from_millis(250)));
            let run = runner.run_with_faults(&repository, &plan);
            match run.reports[0].status {
                PairStatus::TimedOut { phase: observed, exceeded } => {
                    assert_eq!(observed, phase, "{context}");
                    assert_eq!(exceeded, tjoin_text::BudgetExceeded::Deadline, "{context}");
                }
                ref other => panic!("{context}: expected TimedOut, got {other:?}"),
            }
            // The stalled pair carries the phases it completed, nothing later.
            let stalled = &run.reports[0].outcome;
            assert_eq!(stalled.candidate_pairs > 0, phase != PairPhase::Matching, "{context}");
            assert_eq!(!stalled.transformations.is_empty(), phase == PairPhase::Join, "{context}");
            assert!(stalled.predicted_pairs.is_empty(), "{context}");
            assert!(run.reports[1].status.is_ok(), "{context}");
            assert!(run.reports[1].outcome.metrics.f1 > 0.8, "{context}");
            assert_eq!(run.faults.timed_out_pairs, 1, "{context}");
            assert_eq!(run.faults.ok_pairs, 1, "{context}");
        }
    }
}

/// Poisoned locks — report slots and every corpus cache — are recovered,
/// not fatal: the whole run stays `Ok` and bit-identical to the oracle.
#[test]
fn poisoned_locks_recover_to_a_clean_run() {
    quiet_injected_panics();
    let repository = build_repository(&[3, 13, 31], 5);
    let config = JoinPipelineConfig::paper_default();
    let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
    let plan = FaultPlan::new()
        .inject(0, FaultSite::SlotStore, FaultKind::PoisonLock)
        .inject(0, FaultSite::CorpusStatsBuild, FaultKind::PoisonLock)
        .inject(1, FaultSite::CorpusColumnBuild, FaultKind::PoisonLock)
        .inject(2, FaultSite::CorpusIndexBuild, FaultKind::PoisonLock);
    for threads in [1usize, 2, 4] {
        let run = BatchJoinRunner::new(config.clone(), threads)
            .run_with_faults(&repository, &plan);
        assert_eq!(run.faults.failed_pairs, 0, "at {threads} threads");
        assert_eq!(run.faults.ok_pairs, repository.len());
        for i in 0..repository.len() {
            assert_report_matches_oracle(&run, &oracle, i);
        }
    }
}

/// The documented spillover of the shared-corpus design: a column's failed
/// artifact build is *sticky*, so every pair referencing that column fails
/// — deterministically, serially ordered here at one worker. Containment
/// is still per-pair (the run completes; unrelated pairs stay `Ok`).
#[test]
fn sticky_shared_column_failure_fails_every_referencing_pair() {
    quiet_injected_panics();
    let source: Vec<String> = (0..5).map(|i| format!("last{i:02}, first{i:02}")).collect();
    let mut repository: Vec<ColumnPair> = (0..2)
        .map(|p| {
            let target: Vec<String> =
                (0..5).map(|i| format!("f{i:02}.{p} last{i:02}")).collect();
            ColumnPair::aligned(format!("shared-{p}"), source.clone(), target)
        })
        .collect();
    // An unrelated third pair that must not be touched by the spillover.
    repository.extend(build_repository(&[99], 5));
    let plan = FaultPlan::new().inject(0, FaultSite::CorpusStatsBuild, FaultKind::Panic);
    let run = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 1)
        .run_with_faults(&repository, &plan);
    for i in [0usize, 1] {
        match &run.reports[i].status {
            PairStatus::Failed(error) => {
                assert_eq!(error.phase, PairPhase::Matching, "pair {i}");
                assert!(error.message.contains("corpus stats build failed"), "pair {i}");
            }
            other => panic!("pair {i}: expected sticky Failed, got {other:?}"),
        }
    }
    assert!(run.reports[2].status.is_ok());
    assert_eq!(run.faults.failed_pairs, 2);
    assert_eq!(run.faults.ok_pairs, 1);
}

/// A panic at the scheduler-task site — outside every guarded pipeline
/// phase — is caught by the scheduler backstop: the pair fails with
/// [`PairPhase::Scheduler`] *and* the backstop records elapsed-at-failure
/// in `BatchSchedulerStats::scheduler_failures` (regression: these trips
/// used to carry no timing at all).
#[test]
fn scheduler_task_panic_records_elapsed_at_failure() {
    quiet_injected_panics();
    let repository = build_repository(&[41, 42, 43], 4);
    let config = JoinPipelineConfig::paper_default();
    let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
    let plan = FaultPlan::new().inject(1, FaultSite::SchedulerTask, FaultKind::Panic);
    for threads in [1usize, 2, 4] {
        let run =
            BatchJoinRunner::new(config.clone(), threads).run_with_faults(&repository, &plan);
        match &run.reports[1].status {
            PairStatus::Failed(error) => {
                assert_eq!(error.phase, PairPhase::Scheduler, "at {threads} threads");
                assert!(
                    error.message.contains("injected panic at SchedulerTask (pair 1)"),
                    "message {:?}",
                    error.message
                );
            }
            other => panic!("expected Failed at {threads} threads, got {other:?}"),
        }
        // The backstop attributed wall-clock to the trip.
        assert_eq!(run.scheduler.scheduler_failures.len(), 1, "at {threads} threads");
        let failure = run.scheduler.scheduler_failures[0];
        assert_eq!(failure.pair, 1);
        assert!(failure.elapsed < Duration::from_secs(10));
        assert_report_matches_oracle(&run, &oracle, 0);
        assert_report_matches_oracle(&run, &oracle, 2);
    }
    // Several trips are reported sorted by pair index, whatever order the
    // workers hit them in.
    let plan = FaultPlan::new()
        .inject(2, FaultSite::SchedulerTask, FaultKind::Panic)
        .inject(0, FaultSite::SchedulerTask, FaultKind::Panic);
    let run = BatchJoinRunner::new(config.clone(), 4).run_with_faults(&repository, &plan);
    let failed: Vec<usize> =
        run.scheduler.scheduler_failures.iter().map(|f| f.pair).collect();
    assert_eq!(failed, vec![0, 2]);
    // A fault-free run records none.
    let clean = BatchJoinRunner::new(config, 2).run(&repository);
    assert!(clean.scheduler.scheduler_failures.is_empty());
}

/// Panics injected at every site of one pair at once: the first phase to
/// hit wins, exactly one pair fails, and nothing escapes the runner.
#[test]
fn panic_at_every_site_still_fails_exactly_one_pair() {
    quiet_injected_panics();
    let repository = build_repository(&[1, 2, 3, 4], 4);
    let config = JoinPipelineConfig::paper_default();
    let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
    let mut plan = FaultPlan::new();
    for site in SITES {
        plan = plan.inject(2, site, FaultKind::Panic);
    }
    for threads in [1usize, 4] {
        let run = BatchJoinRunner::new(config.clone(), threads)
            .run_with_faults(&repository, &plan);
        assert_eq!(run.faults.failed_pairs, 1, "at {threads} threads");
        match &run.reports[2].status {
            PairStatus::Failed(error) => assert_eq!(error.phase, PairPhase::Matching),
            other => panic!("expected Failed, got {other:?}"),
        }
        for i in [0usize, 1, 3] {
            assert_report_matches_oracle(&run, &oracle, i);
        }
    }
}
