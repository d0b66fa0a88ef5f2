//! Repository-scale batch joining.
//!
//! GXJoin and QJoin frame joinability discovery as a *many-column-pairs*
//! problem: a table repository yields hundreds of candidate column pairs,
//! each of which must be matched, synthesized over, and joined. The
//! [`BatchJoinRunner`] drives the per-pair [`JoinPipeline`] across such a
//! repository under one shared thread budget.
//!
//! # Work-stealing scheduling
//!
//! [`BatchJoinRunner::run`] treats pairs as *tasks on a shared queue*: a
//! fixed pool of `min(threads, pairs)` workers repeatedly claims the next
//! unprocessed pair (an atomic cursor — the degenerate but exact form of
//! work stealing: every idle worker steals from one global queue), so a
//! skewed repository whose huge pair lands on one worker no longer strands
//! the rest of the pool the way a static up-front chunk split does. Each
//! task's pipeline receives an inner budget of `threads / workers` threads
//! (at least 1) for synthesis coverage, its one inner-parallel stage (the
//! matcher and the equi-join are serial), so workers × inner never exceeds
//! the budget.
//! Under the n-gram strategy all workers share one [`GramCorpus`], so a
//! column referenced by several pairs is normalized and indexed once per
//! repository. By default the corpus lives for the whole run and is
//! dropped at the end: peak memory is the repository's distinct-column
//! text plus its gram artifacts, rather than the per-pair transient of the
//! static path — the price of cross-pair reuse. A long-lived deployment
//! attaches an external resident corpus instead
//! ([`BatchJoinRunner::with_corpus`]): the `tjoin-serve` layer keeps one
//! corpus across runs under a byte-budgeted eviction policy, so repeated
//! requests over overlapping repositories skip re-normalization entirely —
//! with results guaranteed bit-identical either way. Scheduling counters
//! (tasks per worker, steal count relative to the static split, corpus
//! reuse) are reported in [`BatchSchedulerStats`].
//!
//! # The retained static-split oracle
//!
//! [`BatchJoinRunner::run_static`] is the pre-work-stealing driver, kept
//! verbatim: pairs chunked contiguously across workers up front
//! (`tjoin_text::chunk_map`), a call-local corpus per pair, none shared.
//! Because the per-pair pipeline is bit-identical at any inner thread
//! count (only coverage reads it; see the pipeline module docs), both drivers
//! must produce exactly the same per-pair [`PairJoinReport`]s — same
//! pairs, same order, same metrics — and the same [`RepositoryMetrics`] at any
//! thread budget; only wall-clock (and the scheduling counters) may differ.
//! The differential proptest suite `tests/proptest_batch.rs` enforces that
//! across random, skewed, and shared-column repositories × {1, 2, 4}
//! threads, and `tests/paper_claims.rs` pins the end-to-end quality claim
//! on a generated repository.
//!
//! (Wall-clock fields — the `Duration`s inside outcomes and metrics — are
//! measurements, not results; the identity claim covers everything else.)
//!
//! # Fault isolation and budgets
//!
//! A repository run is only as robust as its worst pair, so both drivers
//! route every pair through [`JoinPipeline::run_guarded`], whose
//! [`PairJoinReport`] is the report each driver returns: a pair whose
//! phase panics (or that hits a sticky shared-corpus build failure)
//! reports [`PairStatus::Failed`] with the phase and panic message, while
//! the remaining workers keep draining the queue — one failing pair never
//! takes down the batch. A scheduler-level `catch_unwind` backstops panics
//! outside the guarded phases. Reports land in write-once slots, which
//! hold no lock a panic could poison. An optional [`RunBudget`]
//! ([`BatchJoinRunner::with_budget`]) bounds each pair: row/byte caps are
//! charged deterministically at admission and a wall-clock deadline is
//! checked cooperatively at phase loop boundaries, so an over-budget pair
//! degrades to [`PairStatus::TimedOut`] with its completed-phase metrics
//! intact.
//! Per-status tallies are reported in [`BatchFaultStats`]; aggregate
//! metrics still cover *all* reports (a failed pair contributes its empty
//! prediction, exactly as the static oracle sees it).
//!
//! # Discovery-first runs
//!
//! [`BatchJoinRunner::discover_and_run`] puts the anchor prune
//! (`tjoin-discovery`) in front of the pipeline: every column's size-`n_min`
//! anchor set is built once into the run's gram corpus (the attached
//! resident corpus when one exists — warm discovery is then served
//! straight from cache), pairs whose columns share no anchor are pruned,
//! and the existing work-stealing/budget machinery runs only the
//! survivors, most shared anchors first. The batch outcome is
//! bit-identical to calling [`BatchJoinRunner::run`] on the shortlisted
//! sublist directly (the discovery differential suite enforces this);
//! under [`RowMatchingStrategy::Golden`] discovery proves nothing and every
//! pair is retained.
//!
//! The `fault-injection` feature compiles in the deterministic
//! [`FaultPlan`] harness (`BatchJoinRunner::run_with_faults`): named
//! injection points keyed by (pair index, phase) drive the differential
//! gate in `tests/proptest_faults.rs` — with K injected faults, every
//! non-faulted pair stays bit-identical to the fault-free oracle and
//! exactly the faulted pairs report non-[`Ok`](PairStatus::Ok) statuses.

use crate::evaluate::JoinMetrics;
use crate::pipeline::{
    JoinPipeline, JoinPipelineConfig, PairJoinReport, PairPhase, PairStatus, RowMatchingStrategy,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tjoin_datasets::ColumnPair;
use tjoin_discovery::{shortlist_repository, DiscoveryConfig, RepositoryShortlist};
use tjoin_text::{fault, CorpusStats, FaultPlan, FaultSite, GramCorpus, RunBudget, ServeStats};

/// Per-status pair tallies of a batch run — the containment ledger: the
/// three counters always sum to the repository size, and on a fault-free,
/// unbudgeted run `failed_pairs` and `timed_out_pairs` are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchFaultStats {
    /// Pairs whose every phase completed ([`PairStatus::Ok`]).
    pub ok_pairs: usize,
    /// Pairs with a contained panic or corpus failure
    /// ([`PairStatus::Failed`]).
    pub failed_pairs: usize,
    /// Pairs whose [`RunBudget`] tripped ([`PairStatus::TimedOut`]).
    pub timed_out_pairs: usize,
}

/// Aggregate quality and cost over a repository run.
#[derive(Debug, Clone, Default)]
pub struct RepositoryMetrics {
    /// Number of column pairs processed.
    pub pairs: usize,
    /// Pairs for which at least one row pair was predicted.
    pub joined_pairs: usize,
    /// Micro-averaged join quality: true positives, predictions, and golden
    /// pairs summed over the repository before computing precision /
    /// recall / F1 (large pairs weigh more).
    pub micro: JoinMetrics,
    /// Macro-averaged F1: the unweighted mean of per-pair F1 (every pair
    /// weighs the same; decoy pairs with no golden mapping score 0 and drag
    /// this down by design).
    pub macro_f1: f64,
    /// Total wall-clock spent in row matching across all pairs.
    pub matching_time: Duration,
    /// Total wall-clock spent in transformation discovery across all pairs.
    pub synthesis_time: Duration,
    /// Total wall-clock spent applying transformations and equi-joining.
    pub join_time: Duration,
}

/// Elapsed-at-failure attribution for one scheduler-level `catch_unwind`
/// trip: a panic that escaped every guarded pipeline phase
/// ([`PairPhase::Scheduler`]) carries no per-phase timing, so the backstop
/// records how long the task had been running when it unwound — otherwise a
/// scheduler-level failure is wall-clock-invisible in the batch report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerFailure {
    /// Repository index of the pair whose task tripped the backstop.
    pub pair: usize,
    /// Wall-clock from task start to the backstop catching the unwind.
    pub elapsed: Duration,
}

/// Scheduling counters of a batch run — wall-clock-side observability that
/// never influences results (outcomes are identical whatever these say).
#[derive(Debug, Clone, Default)]
pub struct BatchSchedulerStats {
    /// Workers in the pool (`min(threads, pairs)`, at least 1).
    pub workers: usize,
    /// Inner thread budget each task's pipeline ran with
    /// (`threads / workers`, at least 1) — workers × inner ≤ budget. Only
    /// synthesis coverage reads it; the matcher and the equi-join are
    /// serial.
    pub inner_threads: usize,
    /// Tasks each worker executed, by worker index. Under work stealing on
    /// a skewed repository this is *uneven by design* — fast workers drain
    /// the queue while a slow pair occupies its worker.
    pub tasks_per_worker: Vec<usize>,
    /// Tasks a worker executed that the static contiguous split would have
    /// assigned to a different worker — the imbalance the queue absorbed.
    /// Always 0 for [`BatchJoinRunner::run_static`].
    pub stolen_tasks: usize,
    /// Shared-corpus reuse counters (`None` for the static oracle path and
    /// under [`RowMatchingStrategy::Golden`], which match without text
    /// artifacts). With an external resident corpus
    /// ([`BatchJoinRunner::with_corpus`]) this snapshots that corpus *after
    /// the run* — counters accumulate across runs.
    pub corpus: Option<CorpusStats>,
    /// Scheduler-level `catch_unwind` trips ([`PairPhase::Scheduler`])
    /// with their elapsed-at-failure, sorted by pair index. Empty on a
    /// fault-free run and always empty for [`BatchJoinRunner::run_static`]
    /// (the oracle path has no scheduler backstop of its own to attribute).
    pub scheduler_failures: Vec<SchedulerFailure>,
}

/// The result of a batch run: per-pair reports in repository order plus the
/// aggregate metrics and scheduling counters.
#[derive(Debug, Clone)]
pub struct BatchJoinOutcome {
    /// One report per input pair, in input order.
    pub reports: Vec<PairJoinReport>,
    /// Aggregate repository metrics.
    pub metrics: RepositoryMetrics,
    /// Scheduling counters (see [`BatchSchedulerStats`]).
    pub scheduler: BatchSchedulerStats,
    /// Per-status pair tallies (see [`BatchFaultStats`]).
    pub faults: BatchFaultStats,
    /// Resident-cache counters when the run was served by the `tjoin-serve`
    /// layer; `None` for a directly driven run (both drivers). The serving
    /// layer fills this in at request release — the runner itself never
    /// writes it, keeping results independent of how the run was admitted.
    pub serve: Option<ServeStats>,
}

/// The result of a discovery-first batch run
/// ([`BatchJoinRunner::discover_and_run`]): the discovery verdict plus the
/// batch outcome over exactly the shortlisted pairs. The shortlist's
/// `ranked` order *is* the report order of `outcome` — report `i` is the
/// pair `shortlist.ranked[i]` names.
#[derive(Debug, Clone)]
pub struct DiscoveredBatchOutcome {
    /// Which pairs ran and which were provably pruned (see
    /// [`RepositoryShortlist`]).
    pub shortlist: RepositoryShortlist,
    /// The batch outcome over the shortlisted sublist, bit-identical to
    /// [`BatchJoinRunner::run`] on that sublist.
    pub outcome: BatchJoinOutcome,
}

/// Drives the per-pair join pipeline across a repository of column pairs
/// under a shared thread budget (see the module docs).
#[derive(Debug, Clone)]
pub struct BatchJoinRunner {
    config: JoinPipelineConfig,
    threads: usize,
    budget: Option<RunBudget>,
    corpus: Option<Arc<GramCorpus>>,
}

impl BatchJoinRunner {
    /// Creates a runner applying `config` to every pair with a shared
    /// budget of `threads` worker threads (clamped to at least one). Any
    /// thread setting already present in `config` is overridden by the
    /// budget split. Panics on an invalid `config`, exactly as
    /// [`JoinPipeline::new`] does.
    pub fn new(config: JoinPipelineConfig, threads: usize) -> Self {
        config.validate();
        Self {
            config,
            threads: threads.max(1),
            budget: None,
            corpus: None,
        }
    }

    /// Uses `corpus` as the shared gram corpus of subsequent [`Self::run`]s
    /// instead of building one per run — the `tjoin-serve` resident-cache
    /// hookup: a corpus that outlives the run keeps its interned columns,
    /// so repeated requests over overlapping repositories skip
    /// re-normalization and re-indexing entirely. The corpus's
    /// [`NormalizeOptions`](tjoin_text::NormalizeOptions) must match the
    /// runner's n-gram matcher configuration (asserted at run time); it is
    /// ignored under [`RowMatchingStrategy::Golden`]. Results are
    /// bit-identical to a per-run corpus — every artifact is a pure
    /// function of cells, options, and size range — only counters and
    /// wall-clock differ.
    pub fn with_corpus(mut self, corpus: Arc<GramCorpus>) -> Self {
        self.corpus = Some(corpus);
        self
    }

    /// Applies a per-pair [`RunBudget`] to every pair of subsequent runs
    /// (each pair gets its *own* fresh token — budgets bound pairs, not the
    /// repository). Cap overruns are deterministic and thread-invariant;
    /// deadline overruns depend on wall-clock.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The worker count and per-task inner thread budget the runner derives
    /// from its budget for a repository of `pairs` pairs.
    fn split(&self, pairs: usize) -> (usize, usize) {
        let workers = self.threads.min(pairs).max(1);
        let inner_threads = (self.threads / workers).max(1);
        (workers, inner_threads)
    }

    /// Runs match → synthesize → join on every pair of the repository with
    /// the work-stealing pair queue and the shared gram corpus, and
    /// aggregates the outcomes. Reports are returned in input order and are
    /// bit-identical to [`Self::run_static`] — and to running the per-pair
    /// pipeline directly — at any thread budget.
    pub fn run(&self, repository: &[ColumnPair]) -> BatchJoinOutcome {
        self.run_inner(repository, None, self.run_corpus().as_deref())
    }

    /// The gram corpus a run shares: under n-gram matching the attached
    /// resident corpus ([`Self::with_corpus`]), else a fresh one that lives
    /// for the run; none under [`RowMatchingStrategy::Golden`], which
    /// matches without text artifacts.
    fn run_corpus(&self) -> Option<Arc<GramCorpus>> {
        let RowMatchingStrategy::NGram(cfg) = &self.config.matching else {
            return None;
        };
        Some(match &self.corpus {
            Some(shared) => {
                assert_eq!(
                    shared.options(),
                    &cfg.normalize,
                    "shared corpus must normalize like the runner's matcher config"
                );
                Arc::clone(shared)
            }
            None => Arc::new(GramCorpus::new(cfg.normalize)),
        })
    }

    /// Discovery-first run: signs every column of `repository` into the
    /// run's corpus, prunes pairs whose columns share no anchor (see the
    /// `tjoin-discovery` crate docs — recall 1.0 by construction), and
    /// spends the full pipeline only on the shortlist under the runner's
    /// existing thread/`RunBudget` machinery. The embedded
    /// [`BatchJoinOutcome`] is bit-identical to [`Self::run`] over the
    /// shortlisted sublist.
    ///
    /// The discovery config's `n_min` must equal the runner's matcher
    /// `n_min` — the recall guarantee is relative to that matcher; the
    /// corpus it signs into normalizes like the matcher. Under
    /// [`RowMatchingStrategy::Golden`] (golden row pairs need no shared
    /// text) every pair is retained unscored.
    pub fn discover_and_run(
        &self,
        repository: &[ColumnPair],
        discovery: &DiscoveryConfig,
    ) -> DiscoveredBatchOutcome {
        // Sign into the run's corpus — the resident one when attached, so
        // warm discovery is a pure cache read — and run the shortlist
        // through the same corpus, so nothing is normalized twice.
        let (RowMatchingStrategy::NGram(ngram), Some(corpus)) =
            (&self.config.matching, self.run_corpus())
        else {
            return DiscoveredBatchOutcome {
                shortlist: RepositoryShortlist::retain_all(repository),
                outcome: self.run_inner(repository, None, None),
            };
        };
        assert_eq!(
            discovery.n_min, ngram.n_min,
            "discovery n_min must equal the matcher's (the recall guarantee is relative to it)"
        );
        let shortlist = shortlist_repository(repository, &corpus, discovery);
        let sublist: Vec<ColumnPair> = shortlist
            .ranked
            .iter()
            .map(|entry| repository[entry.index].clone())
            .collect();
        let outcome = self.run_inner(&sublist, None, Some(&corpus));
        DiscoveredBatchOutcome { shortlist, outcome }
    }

    /// [`Self::run`] under a deterministic [`FaultPlan`]: each worker sets
    /// the plan's (pair index) scope around its task, so
    /// [`fault::fire`]-instrumented points panic, stall, or poison exactly
    /// where the plan says — the test harness for the containment layer.
    /// Only compiled with the `fault-injection` feature; release builds
    /// carry no injection code.
    #[cfg(feature = "fault-injection")]
    pub fn run_with_faults(&self, repository: &[ColumnPair], plan: &FaultPlan) -> BatchJoinOutcome {
        self.run_inner(repository, Some(plan), self.run_corpus().as_deref())
    }

    /// The work-stealing run over `corpus`, the one [`Self::run_corpus`]
    /// chose.
    fn run_inner(
        &self,
        repository: &[ColumnPair],
        plan: Option<&FaultPlan>,
        corpus: Option<&GramCorpus>,
    ) -> BatchJoinOutcome {
        if repository.is_empty() {
            let scheduler = BatchSchedulerStats { inner_threads: self.threads, ..Default::default() };
            return BatchJoinOutcome::new(Vec::new(), scheduler);
        }
        let (workers, inner_threads) = self.split(repository.len());
        let pipeline = JoinPipeline::new(self.config.clone().with_threads(inner_threads));
        // One task: its report, plus its scheduler-backstop trip if any.
        let run_pair = |task: usize, pair: &ColumnPair| {
            // All guarded phases — including lazy shared-corpus builds,
            // which happen inside the matcher call — execute on this worker
            // thread, so the plan's thread-local (pair, site) scope covers
            // exactly this task's instrumented points.
            let exec = || {
                let started = Instant::now();
                catch_unwind(AssertUnwindSafe(|| {
                    fault::fire(FaultSite::SchedulerTask);
                    pipeline.run_guarded(pair, corpus, self.budget.as_ref())
                }))
                .map(|report| (report, None))
                .unwrap_or_else(|payload| {
                    // Scheduler-level backstop: a panic outside the guarded
                    // phases still fails only this pair — and records its
                    // elapsed-at-failure, since no phase timing exists.
                    let report = PairJoinReport {
                        name: pair.name.clone(),
                        outcome: JoinPipeline::empty_outcome(pair),
                        status: PairStatus::failed(
                            PairPhase::Scheduler,
                            fault::panic_message(&*payload),
                        ),
                    };
                    (report, Some(SchedulerFailure { pair: task, elapsed: started.elapsed() }))
                })
            };
            match plan {
                Some(plan) => fault::with_pair_scope(plan, task, exec),
                None => exec(),
            }
        };

        // The static contiguous split, used only to *count* steals: a task
        // is "stolen" when the queue hands it to a worker the static split
        // would not have given it to.
        let static_chunk = repository.len().div_ceil(workers);

        // The shared pair queue: an atomic cursor every worker claims the
        // next task from. Results land in write-once per-pair slots, so
        // output order is input order no matter who ran what.
        let next = AtomicUsize::new(0);
        let stolen = AtomicUsize::new(0);
        let slots: Vec<OnceLock<PairJoinReport>> =
            repository.iter().map(|_| OnceLock::new()).collect();
        // One worker's loop: drain the queue, returning the tasks executed
        // and the scheduler-backstop trips among them.
        let drain = |worker: usize| -> (usize, Vec<SchedulerFailure>) {
            let mut executed = 0usize;
            let mut failures = Vec::new();
            loop {
                let task = next.fetch_add(1, Ordering::Relaxed);
                if task >= repository.len() {
                    return (executed, failures);
                }
                let (report, failure) = run_pair(task, &repository[task]);
                // Invariant is local (audited): the atomic cursor hands out
                // every task index exactly once, so each slot is set once.
                assert!(slots[task].set(report).is_ok(), "task {task} claimed twice");
                failures.extend(failure);
                executed += 1;
                if task / static_chunk != worker {
                    stolen.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        let drained: Vec<(usize, Vec<SchedulerFailure>)> = if workers == 1 {
            // One worker drains the queue on the calling thread: no spawn.
            vec![drain(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        let drain = &drain;
                        scope.spawn(move || drain(worker))
                    })
                    .collect();
                // Workers contain per-pair panics themselves; a panic
                // escaping one is a scheduler bug, re-raised verbatim.
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    })
                    .collect()
            })
        };
        let (tasks_per_worker, failures): (Vec<usize>, Vec<Vec<SchedulerFailure>>) =
            drained.into_iter().unzip();
        let mut scheduler_failures: Vec<SchedulerFailure> = failures.concat();
        scheduler_failures.sort_unstable_by_key(|failure| failure.pair);
        // Invariant is local (audited): every task index was claimed and its
        // slot set before its worker returned, and worker panics were
        // re-raised above — so no slot can still be empty here.
        let reports =
            slots.into_iter().map(|slot| slot.into_inner().expect("every task executed")).collect();
        BatchJoinOutcome::new(
            reports,
            BatchSchedulerStats {
                workers,
                inner_threads,
                tasks_per_worker,
                stolen_tasks: stolen.into_inner(),
                corpus: corpus.map(|c| c.stats()),
                scheduler_failures,
            },
        )
    }

    /// The retained static-split driver (the differential oracle for
    /// [`Self::run`]): pairs chunked contiguously across the worker budget
    /// up front, a call-local corpus per pair, none shared. Outcomes are
    /// thread-invariant, so this must produce exactly the reports and
    /// metrics the work-stealing driver does.
    pub fn run_static(&self, repository: &[ColumnPair]) -> BatchJoinOutcome {
        let (workers, inner_threads) = self.split(repository.len());
        let pipeline = JoinPipeline::new(self.config.clone().with_threads(inner_threads));

        // Contiguous pair chunks across the worker budget, concatenated in
        // order. Outcomes are thread-invariant, so chunk boundaries cannot
        // change results. The oracle path runs guarded too (no fault plan —
        // it IS the fault-free reference): statuses are all `Ok` without a
        // budget, and cap-based budgets trip identically on both drivers.
        let reports = tjoin_text::chunk_map(repository, workers, |pair| {
            pipeline.run_guarded(pair, None, self.budget.as_ref())
        });

        let chunk = repository.len().div_ceil(workers).max(1);
        let mut tasks_per_worker = vec![0usize; workers];
        for task in 0..repository.len() {
            tasks_per_worker[(task / chunk).min(workers - 1)] += 1;
        }
        BatchJoinOutcome::new(
            reports,
            BatchSchedulerStats {
                workers: if repository.is_empty() { 0 } else { workers },
                inner_threads,
                tasks_per_worker: if repository.is_empty() {
                    Vec::new()
                } else {
                    tasks_per_worker
                },
                ..BatchSchedulerStats::default()
            },
        )
    }
}

impl BatchJoinOutcome {
    /// The outcome of a run's reports: the status tallies and aggregate
    /// metrics computed from them, with no serve counters.
    fn new(reports: Vec<PairJoinReport>, scheduler: BatchSchedulerStats) -> Self {
        let mut faults = BatchFaultStats::default();
        for report in &reports {
            match &report.status {
                PairStatus::Ok => faults.ok_pairs += 1,
                PairStatus::Failed(_) => faults.failed_pairs += 1,
                PairStatus::TimedOut { .. } => faults.timed_out_pairs += 1,
            }
        }
        BatchJoinOutcome { metrics: aggregate(&reports), reports, scheduler, faults, serve: None }
    }
}

/// Computes the repository aggregate of a report list.
fn aggregate(reports: &[PairJoinReport]) -> RepositoryMetrics {
    let mut metrics = RepositoryMetrics {
        pairs: reports.len(),
        ..RepositoryMetrics::default()
    };
    let (mut tp, mut predicted, mut golden) = (0usize, 0usize, 0usize);
    let mut f1_sum = 0.0f64;
    for report in reports {
        let m = &report.outcome.metrics;
        tp += m.true_positives;
        predicted += m.predicted;
        golden += m.golden;
        f1_sum += m.f1;
        if m.predicted > 0 {
            metrics.joined_pairs += 1;
        }
        metrics.matching_time += report.outcome.matching_time;
        metrics.synthesis_time += report.outcome.synthesis_time;
        metrics.join_time += report.outcome.join_time;
    }
    metrics.micro = JoinMetrics::from_counts(tp, predicted, golden);
    metrics.macro_f1 = if reports.is_empty() { 0.0 } else { f1_sum / reports.len() as f64 };
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RowMatchingStrategy;

    fn small_repository() -> Vec<ColumnPair> {
        vec![
            ColumnPair::aligned(
                "names",
                vec![
                    "Rafiei, Davood".into(),
                    "Nascimento, Mario".into(),
                    "Bowling, Michael".into(),
                    "Gosgnach, Simon".into(),
                ],
                vec![
                    "D Rafiei".into(),
                    "M Nascimento".into(),
                    "M Bowling".into(),
                    "S Gosgnach".into(),
                ],
            ),
            ColumnPair::aligned(
                "emails",
                vec![
                    "smith.john@example.org".into(),
                    "doe.jane@example.org".into(),
                    "wong.alex@example.org".into(),
                ],
                vec!["john".into(), "jane".into(), "alex".into()],
            ),
        ]
    }

    /// A pair whose target shares no structure with the source: no string
    /// transformation can cover it, so a correct batch run predicts
    /// nothing for it.
    fn decoy_pair() -> ColumnPair {
        ColumnPair {
            name: "decoy".into(),
            source: vec![
                "Rafiei, Davood".into(),
                "Nascimento, Mario".into(),
                "Bowling, Michael".into(),
            ],
            target: vec!["qqxx-0017-zz".into(), "ttyy-9321-vv".into(), "rrww-4205-kk".into()],
            golden: vec![],
        }
    }

    /// Asserts two batch outcomes carry identical results (everything but
    /// the wall-clock measurements and scheduling counters).
    fn assert_outcomes_identical(a: &BatchJoinOutcome, b: &BatchJoinOutcome) {
        assert_eq!(a.reports.len(), b.reports.len());
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.status, rb.status, "{}", ra.name);
            assert_eq!(ra.outcome.predicted_pairs, rb.outcome.predicted_pairs, "{}", ra.name);
            assert_eq!(ra.outcome.metrics, rb.outcome.metrics, "{}", ra.name);
            assert_eq!(ra.outcome.candidate_pairs, rb.outcome.candidate_pairs, "{}", ra.name);
            assert_eq!(ra.outcome.transformations, rb.outcome.transformations, "{}", ra.name);
            assert_eq!(ra.outcome.synthesis.cover, rb.outcome.synthesis.cover, "{}", ra.name);
            // Every synthesis counter matches; the timings are measurements.
            let (mut sa, sb) = (ra.outcome.synthesis.stats.clone(), &rb.outcome.synthesis.stats);
            sa.timings = sb.timings;
            assert_eq!(&sa, sb, "{}", ra.name);
        }
        assert_eq!(a.metrics.pairs, b.metrics.pairs);
        assert_eq!(a.metrics.joined_pairs, b.metrics.joined_pairs);
        assert_eq!(a.metrics.micro, b.metrics.micro);
        assert_eq!(a.metrics.macro_f1, b.metrics.macro_f1);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn discover_and_run_prunes_the_decoy_and_matches_the_plain_run() {
        let config = JoinPipelineConfig::paper_default();
        let mut repository = small_repository();
        repository.push(decoy_pair());
        let discovery = DiscoveryConfig::paper_default();
        let runner = BatchJoinRunner::new(config.clone(), 2);
        let discovered = runner.discover_and_run(&repository, &discovery);
        // The decoy shares no 4-gram with its target: provably pruned.
        assert_eq!(discovered.shortlist.pruned.len(), 1);
        assert_eq!(discovered.shortlist.pruned[0].name, "decoy");
        assert_eq!(discovered.shortlist.ranked.len(), 2);
        assert!(discovered.shortlist.ranked.iter().all(|s| !s.signature_failed));
        // Bit-identity with the plain runner over the shortlisted sublist.
        let sublist: Vec<ColumnPair> = discovered
            .shortlist
            .ranked
            .iter()
            .map(|entry| repository[entry.index].clone())
            .collect();
        let oracle = runner.run(&sublist);
        assert_outcomes_identical(&discovered.outcome, &oracle);
        assert!(discovered.outcome.metrics.joined_pairs > 0);
    }

    #[test]
    fn discover_and_run_serves_discovery_from_an_attached_corpus() {
        let config = JoinPipelineConfig::paper_default();
        let repository = small_repository();
        let discovery = DiscoveryConfig::paper_default();
        let corpus = Arc::new(GramCorpus::new(
            match &config.matching {
                RowMatchingStrategy::NGram(cfg) => cfg.normalize,
                RowMatchingStrategy::Golden => unreachable!("paper default is NGram"),
            },
        ));
        let runner = BatchJoinRunner::new(config, 2).with_corpus(Arc::clone(&corpus));
        let cold = runner.discover_and_run(&repository, &discovery);
        let built = corpus.stats().signatures_built;
        assert!(built > 0, "discovery signs into the attached corpus");
        let warm = runner.discover_and_run(&repository, &discovery);
        assert_eq!(warm.shortlist, cold.shortlist);
        assert_outcomes_identical(&warm.outcome, &cold.outcome);
        let stats = corpus.stats();
        assert_eq!(stats.signatures_built, built, "warm discovery builds nothing");
        assert!(stats.signature_hits > 0, "warm discovery is a cache read");
    }

    #[test]
    fn discover_and_run_under_golden_strategy_retains_everything() {
        let config = JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::paper_default()
        };
        let mut repository = small_repository();
        repository.push(decoy_pair());
        let runner = BatchJoinRunner::new(config, 2);
        let discovered = runner.discover_and_run(&repository, &DiscoveryConfig::paper_default());
        assert_eq!(discovered.shortlist.ranked.len(), repository.len());
        assert!(discovered.shortlist.pruned.is_empty());
        let oracle = runner.run(&repository);
        assert_outcomes_identical(&discovered.outcome, &oracle);
    }

    #[test]
    fn batch_matches_per_pair_pipeline_and_static_oracle() {
        let config = JoinPipelineConfig::paper_default();
        let repository = small_repository();
        let oracle = BatchJoinRunner::new(config.clone(), 1).run_static(&repository);
        for threads in [1usize, 2, 4] {
            let batch = BatchJoinRunner::new(config.clone(), threads).run(&repository);
            assert_eq!(batch.reports.len(), repository.len());
            assert_outcomes_identical(&batch, &oracle);
            for (pair, report) in repository.iter().zip(&batch.reports) {
                assert_eq!(report.name, pair.name);
                let solo = JoinPipeline::new(config.clone()).run(pair);
                assert_eq!(
                    report.outcome.predicted_pairs, solo.predicted_pairs,
                    "pair {} diverged at {threads} threads",
                    pair.name
                );
                assert_eq!(report.outcome.metrics, solo.metrics);
            }
            // Every task ran exactly once, on some worker.
            assert_eq!(
                batch.scheduler.tasks_per_worker.iter().sum::<usize>(),
                repository.len()
            );
            assert!(batch.scheduler.workers * batch.scheduler.inner_threads <= threads.max(1));
        }
    }

    #[test]
    fn shared_corpus_reused_across_pairs_sharing_a_column() {
        // Three pairs probing the same source column: the corpus must
        // intern it once and serve the other two references from cache.
        let source: Vec<String> = vec![
            "Rafiei, Davood".into(),
            "Bowling, Michael".into(),
            "Gosgnach, Simon".into(),
        ];
        let repository: Vec<ColumnPair> = [
            vec!["D Rafiei".into(), "M Bowling".into(), "S Gosgnach".into()],
            vec!["d.rafiei".into(), "m.bowling".into(), "s.gosgnach".into()],
            vec!["RAFIEI D".into(), "BOWLING M".into(), "GOSGNACH S".into()],
        ]
        .into_iter()
        .enumerate()
        .map(|(i, target)| ColumnPair::aligned(format!("shared-{i}"), source.clone(), target))
        .collect();

        for threads in [1usize, 4] {
            let batch =
                BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads).run(&repository);
            let corpus = batch.scheduler.corpus.expect("n-gram strategy builds a corpus");
            // 1 shared source + 3 distinct targets = 4 interned columns for
            // 6 references: 2 normalizations saved, at any thread count.
            assert_eq!(corpus.columns_interned, 4, "at {threads} threads");
            assert_eq!(corpus.column_hits, 2, "at {threads} threads");
            assert_eq!(corpus.stats_built, 4);
            assert_eq!(corpus.stats_hits, 2);
            let oracle = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .run_static(&repository);
            assert_outcomes_identical(&batch, &oracle);
            assert!(oracle.scheduler.corpus.is_none());
        }
    }

    #[test]
    fn external_corpus_shared_across_runs_is_bit_identical() {
        let config = JoinPipelineConfig::paper_default();
        let repository = small_repository();
        let cold = BatchJoinRunner::new(config.clone(), 2).run(&repository);
        let normalize = match &config.matching {
            RowMatchingStrategy::NGram(cfg) => cfg.normalize,
            RowMatchingStrategy::Golden => unreachable!("paper default matches by n-gram"),
        };
        let resident = Arc::new(GramCorpus::new(normalize));
        let runner = BatchJoinRunner::new(config, 2).with_corpus(Arc::clone(&resident));
        let first = runner.run(&repository);
        assert_outcomes_identical(&first, &cold);
        // The corpus outlived the run: 4 distinct columns stay resident.
        assert_eq!(resident.stats().columns_interned, 4);
        let cold_hits = cold.scheduler.corpus.expect("n-gram run has corpus stats").column_hits;
        // The warm rerun re-interns nothing — every column reference hits.
        let second = runner.run(&repository);
        assert_outcomes_identical(&second, &cold);
        let warm = resident.stats();
        assert_eq!(warm.columns_interned, 4);
        assert_eq!(warm.column_hits, cold_hits * 2 + 4);
        // The run-level snapshot is the resident corpus's (accumulating).
        assert_eq!(second.scheduler.corpus, Some(warm));
        // Serve counters belong to the serving layer, not the runner.
        assert!(cold.serve.is_none() && first.serve.is_none() && second.serve.is_none());
    }

    #[test]
    fn aggregate_metrics_add_up() {
        let repository = small_repository();
        let batch = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 2).run(&repository);
        let m = &batch.metrics;
        assert_eq!(m.pairs, 2);
        assert_eq!(m.joined_pairs, 2);
        let golden_total: usize = batch.reports.iter().map(|r| r.outcome.metrics.golden).sum();
        assert_eq!(m.micro.golden, golden_total);
        assert!(m.micro.f1 > 0.8, "micro f1 {}", m.micro.f1);
        assert!(m.macro_f1 > 0.8, "macro f1 {}", m.macro_f1);
    }

    #[test]
    fn decoy_pair_predicts_nothing() {
        let mut repository = small_repository();
        repository.push(decoy_pair());
        let batch = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 4).run(&repository);
        let decoy = batch.reports.iter().find(|r| r.name == "decoy").unwrap();
        assert!(
            decoy.outcome.predicted_pairs.is_empty(),
            "decoy predicted {:?}",
            decoy.outcome.predicted_pairs
        );
        // The joinable pairs are unaffected by the decoy riding along.
        assert_eq!(batch.metrics.joined_pairs, 2);
        assert_eq!(batch.metrics.pairs, 3);
    }

    #[test]
    fn empty_repository() {
        for outcome in [
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 4).run(&[]),
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 4).run_static(&[]),
        ] {
            assert!(outcome.reports.is_empty());
            assert_eq!(outcome.metrics.pairs, 0);
            assert_eq!(outcome.metrics.macro_f1, 0.0);
            assert_eq!(outcome.metrics.micro.f1, 0.0);
            assert_eq!(outcome.scheduler.workers, 0);
            assert!(outcome.scheduler.tasks_per_worker.is_empty());
            assert_eq!(outcome.scheduler.stolen_tasks, 0);
        }
    }

    #[test]
    fn single_pair_repository() {
        // One pair, budget 4: one worker takes the whole inner budget.
        let repository = vec![small_repository().remove(0)];
        let batch = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 4).run(&repository);
        assert_eq!(batch.scheduler.workers, 1);
        assert_eq!(batch.scheduler.inner_threads, 4);
        assert_eq!(batch.scheduler.tasks_per_worker, vec![1]);
        assert_eq!(batch.scheduler.stolen_tasks, 0);
        let oracle =
            BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 1).run_static(&repository);
        assert_outcomes_identical(&batch, &oracle);
        assert_eq!(batch.metrics.joined_pairs, 1);
    }

    #[test]
    fn all_decoy_repository_predicts_nothing() {
        let repository: Vec<ColumnPair> = (0..3)
            .map(|i| {
                let mut p = decoy_pair();
                p.name = format!("decoy-{i}");
                p
            })
            .collect();
        for threads in [1usize, 4] {
            let batch =
                BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads).run(&repository);
            assert_eq!(batch.metrics.joined_pairs, 0);
            assert_eq!(batch.metrics.micro.predicted, 0);
            assert_eq!(batch.metrics.macro_f1, 0.0);
            for report in &batch.reports {
                assert!(report.outcome.predicted_pairs.is_empty(), "{}", report.name);
            }
            let oracle = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .run_static(&repository);
            assert_outcomes_identical(&batch, &oracle);
        }
    }

    #[test]
    fn golden_strategy_batch() {
        let config = JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::paper_default()
        };
        let batch = BatchJoinRunner::new(config, 2).run(&small_repository());
        assert!((batch.metrics.micro.recall - 1.0).abs() < 1e-9, "{:?}", batch.metrics);
        // Golden matching needs no text artifacts: no corpus is built.
        assert!(batch.scheduler.corpus.is_none());
    }

    #[test]
    fn runner_rejects_a_config_its_pipeline_rejects() {
        // Rejected up front, not per pair by the pipeline or the matcher
        // (or never, on an empty repository).
        let bad_support =
            JoinPipelineConfig { join_min_support: 1.5, ..JoinPipelineConfig::paper_default() };
        let mut bad_matcher = JoinPipelineConfig::paper_default();
        if let RowMatchingStrategy::NGram(matcher) = &mut bad_matcher.matching {
            matcher.n_min = 0;
        }
        for (config, message) in
            [(bad_support, "join_min_support"), (bad_matcher, "n_min must be at least 1")]
        {
            let payload = std::panic::catch_unwind(|| BatchJoinRunner::new(config, 2))
                .expect_err("invalid config accepted");
            assert!(fault::panic_message(&*payload).contains(message));
        }
    }

    #[test]
    fn thread_budget_clamped() {
        assert_eq!(BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 0).threads, 1);
    }

    #[test]
    fn worker_inner_product_never_exceeds_budget() {
        for (threads, pairs) in [(1usize, 5usize), (2, 5), (4, 2), (4, 12), (7, 3), (16, 4)] {
            let runner = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads);
            let (workers, inner) = runner.split(pairs);
            assert!(workers * inner <= threads, "budget exceeded at {threads}t/{pairs}p");
            assert!(workers >= 1 && inner >= 1);
        }
    }

    #[test]
    fn clean_run_reports_all_ok() {
        let repository = small_repository();
        for threads in [1usize, 4] {
            let batch =
                BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads).run(&repository);
            assert_eq!(
                batch.faults,
                BatchFaultStats { ok_pairs: 2, failed_pairs: 0, timed_out_pairs: 0 }
            );
            for report in &batch.reports {
                assert!(report.status.is_ok(), "{}: {:?}", report.name, report.status);
            }
        }
    }

    #[test]
    fn row_cap_degrades_oversized_pairs_thread_invariantly() {
        // `emails` has 6 rows, `names` 8: a 7-row cap admits only `emails`.
        let repository = small_repository();
        let budget = RunBudget { max_rows: Some(7), ..RunBudget::default() };
        let oracle = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), 1)
            .with_budget(budget)
            .run_static(&repository);
        assert_eq!(
            oracle.faults,
            BatchFaultStats { ok_pairs: 1, failed_pairs: 0, timed_out_pairs: 1 }
        );
        for threads in [1usize, 2, 4] {
            let batch = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .with_budget(budget)
                .run(&repository);
            assert_outcomes_identical(&batch, &oracle);
            let names = batch.reports.iter().find(|r| r.name == "names").unwrap();
            assert_eq!(
                names.status,
                PairStatus::TimedOut {
                    phase: PairPhase::Matching,
                    exceeded: tjoin_text::BudgetExceeded::Rows,
                }
            );
            assert!(names.outcome.predicted_pairs.is_empty());
            // The in-budget pair is untouched by its neighbor's overrun.
            let emails = batch.reports.iter().find(|r| r.name == "emails").unwrap();
            assert!(emails.status.is_ok());
            assert!(emails.outcome.metrics.f1 > 0.8, "{:?}", emails.outcome.metrics);
        }
    }

    #[test]
    fn zero_deadline_times_out_every_pair() {
        let repository = small_repository();
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        for threads in [1usize, 4] {
            let batch = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads)
                .with_budget(budget)
                .run(&repository);
            assert_eq!(batch.faults.timed_out_pairs, repository.len());
            assert_eq!(batch.faults.ok_pairs, 0);
            for report in &batch.reports {
                assert!(
                    matches!(
                        report.status,
                        PairStatus::TimedOut {
                            exceeded: tjoin_text::BudgetExceeded::Deadline,
                            ..
                        }
                    ),
                    "{}: {:?}",
                    report.name,
                    report.status
                );
            }
        }
    }
}
