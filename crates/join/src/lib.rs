//! # tjoin-join
//!
//! The end-to-end join layer (Sections 4.2 and 6.5 of the paper), built for
//! repository-scale workloads: one column pair runs through the
//! [`pipeline`], and a whole repository of pairs runs through the shared
//! thread-budget [`batch`] driver, which parallelizes across pairs.
//!
//! # The per-pair pipeline
//!
//! [`pipeline::JoinPipeline::run_guarded`] is the one phase sequence;
//! [`pipeline::JoinPipeline::run`] is that call without a corpus or budget,
//! and both batch drivers call it per pair:
//!
//! 1. find candidate joinable row pairs (the n-gram matcher of
//!    `tjoin-matching`, or the golden mapping for oracle experiments);
//! 2. discover a transformation set over those pairs with the synthesis
//!    engine (or a baseline);
//! 3. keep transformations above a minimum support;
//! 4. apply them to every source row and equi-join the transformed values
//!    against the target column — a *fingerprint join*: both columns
//!    normalized once, target rows bucketed by the 64-bit
//!    [`tjoin_text::fingerprint64`] of their normalized value, and probes
//!    confirmed with an exact string comparison;
//! 5. evaluate the predicted row pairs against the golden mapping
//!    (precision / recall / F1 — Table 3).
//!
//! # Determinism and the reference oracles
//!
//! Matching and the equi-join are serial; the pipeline's thread budget
//! reaches only synthesis coverage, whose row chunks are bit-identical at
//! any thread count. The original implementations are retained as
//! differential oracles — [`reference::equi_join_reference`] here and
//! `tjoin_matching::reference::find_candidates_reference` for the matcher —
//! and `tests/proptest_join.rs` proves production output identical to them
//! across random column pairs × both matching strategies, and the pipeline
//! outcome identical at {1, 2, 4} threads.
//!
//! # Repository-scale batching
//!
//! [`batch::BatchJoinRunner`] runs match → synthesize → join over many
//! column pairs (the GXJoin/QJoin many-column-pairs regime) under one
//! shared thread budget. Pairs are *tasks on a work-stealing queue*: a
//! fixed pool of workers claims the next unprocessed pair from an atomic
//! cursor, so skewed repositories (one huge pair) no longer strand the rest
//! of the pool the way the retained static chunk split
//! ([`batch::BatchJoinRunner::run_static`], the differential oracle) does;
//! each task's pipeline receives `threads / workers` inner threads (read
//! only by synthesis coverage), so the pool never exceeds the budget. A single worker runs the same queue loop
//! on the calling thread, without spawning. All workers share one
//! [`tjoin_text::GramCorpus`], so a column referenced by several pairs is
//! normalized and gram-indexed once per repository. Per-pair
//! [`JoinOutcome`]s aggregate into [`batch::RepositoryMetrics`] (micro /
//! macro quality, per-phase time totals), and
//! [`batch::BatchSchedulerStats`] reports the scheduling counters (tasks
//! per worker, steals, corpus reuse). `tests/proptest_batch.rs` proves
//! work-stealing outcomes identical to the static-split oracle across
//! random, skewed, and shared-column repositories × {1, 2, 4} threads.
//! `tjoin_datasets::repository` generates heterogeneous workloads (names /
//! phones / dates / web formats, controllable noise, non-joinable decoys,
//! and a skew knob) for it.
//!
//! # Fault isolation and budgets
//!
//! A repository run must survive its worst pair. Both batch drivers route
//! every pair through [`pipeline::JoinPipeline::run_guarded`], which
//! contains failures *per pair*:
//!
//! * a phase that panics — or depends on a shared-corpus artifact whose
//!   build failed (sticky [`tjoin_text::CorpusFailure`]) — degrades to
//!   [`pipeline::PairStatus::Failed`] with the phase and panic message,
//!   keeping every completed phase's outcome fields;
//! * an optional per-pair [`tjoin_text::RunBudget`]
//!   ([`batch::BatchJoinRunner::with_budget`]) bounds cost: row/byte caps
//!   are charged once at admission (deterministic and thread-invariant by
//!   construction) and the wall-clock deadline is checked cooperatively at
//!   the matcher-scan, coverage, selection, and join loop boundaries,
//!   yielding [`pipeline::PairStatus::TimedOut`] with the tripped axis.
//!   Budgeted aborts are all-or-nothing: no truncated result is ever
//!   reported as complete;
//! * a fault-free run's outcome does not depend on whether a corpus or a
//!   live budget was passed, and per-status tallies land in
//!   [`batch::BatchFaultStats`].
//!
//! The `fault-injection` feature compiles in the deterministic
//! [`tjoin_text::FaultPlan`] harness
//! (`BatchJoinRunner::run_with_faults`); `tests/proptest_faults.rs`
//! proves that with K injected faults every non-faulted pair stays
//! bit-identical to the fault-free oracle and exactly the faulted pairs
//! report non-Ok statuses, across random repositories × {1, 2, 4} threads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod evaluate;
pub mod incremental;
pub mod pipeline;
pub mod reference;

pub use batch::{
    BatchFaultStats, BatchJoinOutcome, BatchJoinRunner, BatchSchedulerStats,
    DiscoveredBatchOutcome, PairJoinReport, RepositoryMetrics, SchedulerFailure,
};
pub use incremental::{AppendReport, IncrementalCoverage, IncrementalJoin, IncrementalJoinConfig};
pub use tjoin_discovery::{DiscoveryConfig, PrunedPair, RepositoryShortlist, ScoredPair};
pub use evaluate::{evaluate_join, JoinMetrics};
pub use pipeline::{
    GuardedJoinOutcome, JoinOutcome, JoinPipeline, JoinPipelineConfig, PairError, PairPhase,
    PairStatus, RowMatchingStrategy,
};
pub use reference::equi_join_reference;
