//! `cross_discover`: one op is `BatchJoinRunner::discover_and_run` with
//! the paper-default discovery settings on a fresh repository of joinable
//! pairs plus cross-family re-pairings: one family's source column against
//! another family's target column, with an empty golden mapping. The
//! re-pairings share grams with each other and with the true pairs, so
//! some survive discovery and make matching and synthesis do real work —
//! the shape in which discovery has to earn its cost.
//!
//! Every op's outcome must equal `BatchJoinRunner::run` on the shortlisted
//! sublist, and every true pair must be retained (recall 1.0).

use std::collections::BTreeMap;

use tjoin_datasets::{is_decoy, ColumnPair, RepositoryConfig};
use tjoin_discovery::shortlist_repository;
use tjoin_join::{BatchJoinRunner, DiscoveredBatchOutcome, DiscoveryConfig, JoinPipelineConfig};

use crate::layers::{self, batch_failures, batch_results};
use crate::metrics::{
    self, repeat_setup, summed_f1, timed, Checks, OpSamples, Report, Traced, Untraced,
};
use crate::trace::Tracer;
use crate::{par_map, threads, Args};

/// Ops per nominal second. One op takes about 0.8 s on 2 cores and its
/// check as long again, so the whole run takes about `--seconds`.
const OPS_PER_SECOND: f64 = 0.6;
/// Fewest ops in a run.
const MIN_OPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Complete set-ups in one timed interval: generating the op stream once
/// takes about 2 ms, so one interval takes about 0.2 s.
const SETUP_ROUNDS: usize = 100;
/// Joinable pairs per repository, and their rows.
const TRUE_PAIRS: usize = 6;
const ROWS: usize = 30;
/// Each true pair's source is re-paired with the targets this many pairs
/// further on (a different format family, since families cycle).
const CROSS_OFFSETS: [usize; 2] = [1, 2];

/// One op's repository: each true pair followed by its re-pairings.
fn repository(seed: u64) -> Vec<ColumnPair> {
    let pairs = RepositoryConfig::new(TRUE_PAIRS, ROWS)
        .with_decoys(0.0)
        .generate(seed);
    let mut repository = Vec::with_capacity(pairs.len() * (1 + CROSS_OFFSETS.len()));
    for (i, pair) in pairs.iter().enumerate() {
        repository.push(pair.clone());
        for offset in CROSS_OFFSETS {
            let other = &pairs[(i + offset) % pairs.len()];
            repository.push(ColumnPair::new(
                format!("cross-{i:03}-{:03}", (i + offset) % pairs.len()),
                pair.source.clone(),
                other.target.clone(),
                Vec::new(),
            ));
        }
    }
    repository
}

fn generate(seed: u64, ops: usize) -> Vec<Vec<ColumnPair>> {
    par_map(ops, |i| {
        repository(seed.wrapping_mul(1_000).wrapping_add(i as u64))
    })
}

fn discovery() -> DiscoveryConfig {
    DiscoveryConfig::paper_default().with_threads(threads())
}

/// The pairs discovery kept, in run order.
fn shortlisted(outcome: &DiscoveredBatchOutcome, repository: &[ColumnPair]) -> Vec<ColumnPair> {
    outcome
        .shortlist
        .ranked
        .iter()
        .map(|entry| repository[entry.index].clone())
        .collect()
}

/// Checks shared by both runs: statuses, and no true pair pruned.
fn discovery_failures(
    i: usize,
    outcome: &DiscoveredBatchOutcome,
    repository: &[ColumnPair],
) -> Vec<String> {
    let sublist = shortlisted(outcome, repository);
    let mut failures = batch_failures(&outcome.outcome, &sublist, &format!("op {i}"));
    for pruned in &outcome.shortlist.pruned {
        if !is_decoy(&repository[pruned.index]) {
            failures.push(format!(
                "op {i}: discovery pruned true pair {}",
                pruned.name
            ));
        }
    }
    failures
}

pub fn run(args: &Args) -> Report {
    let ops = args.ops(OPS_PER_SECOND, MIN_OPS);
    let runner = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads());
    if args.trace {
        return metrics::per_layer(traced(args, ops, &runner), args);
    }
    let (repositories, setup_s) = repeat_setup(SETUPS, SETUP_ROUNDS, || generate(args.seed, ops));
    let config = discovery();
    let mut samples = OpSamples::default();
    let mut outcomes = Vec::with_capacity(ops);
    for repository in &repositories {
        let outcome = samples.time(|| runner.discover_and_run(repository, &config));
        outcomes.push(outcome);
    }

    let mut checks = Checks::default();
    for (i, (outcome, repository)) in outcomes.iter().zip(&repositories).enumerate() {
        let mut failures = discovery_failures(i, outcome, repository);
        let sublist = shortlisted(outcome, repository);
        if batch_results(&outcome.outcome) != batch_results(&runner.run(&sublist)) {
            failures.push(format!(
                "op {i}: outcome differs from run on the shortlisted sublist"
            ));
        }
        checks.op(failures);
    }
    metrics::end_to_end(Untraced {
        setup_s,
        ops: samples,
        checks,
        micro_f1: summed_f1(outcomes.iter().map(|o| o.outcome.metrics.micro)),
    })
}

/// Each op twice: untraced through `discover_and_run` (for the overhead
/// and the check), then traced: `shortlist_repository` into an owned
/// corpus, and the ranked pairs through the layers with that corpus.
/// After each op, outside it, the pairs discovery pruned run through the
/// layers too, with the op's corpus: the pipeline time discovery saved.
fn traced(args: &Args, ops: usize, runner: &BatchJoinRunner) -> Traced {
    let mut tracer = Tracer::new();
    let repositories = tracer.span("datasets.generate", |_| generate(args.seed, ops));
    let config = discovery();
    let pipeline_config = JoinPipelineConfig::paper_default();

    let mut checks = Checks::default();
    let mut untraced_op_s = Vec::with_capacity(ops);
    let (mut pruned, mut considered, mut shortlist_s, mut saved_s) = (0, 0, 0.0, 0.0);
    for (i, repository) in repositories.iter().enumerate() {
        let (outcome, s) = timed(|| runner.discover_and_run(repository, &config));
        untraced_op_s.push(s);
        let corpus = layers::run_corpus(&pipeline_config);
        let (shortlist, composed) = tracer.op(i as u64 + 1, "op", |t| {
            let (shortlist, s) = timed(|| {
                t.span("discovery.shortlist", |_| {
                    shortlist_repository(repository, &corpus, &config)
                })
            });
            shortlist_s += s;
            t.count(
                "discovery.signatures_built",
                corpus.stats().signatures_built as f64,
            );
            let pipeline = layers::runner_pipeline(&pipeline_config, shortlist.ranked.len());
            let before = corpus.stats();
            let composed: Vec<_> = shortlist
                .ranked
                .iter()
                .map(|entry| {
                    layers::run_pair(t, &pipeline, &repository[entry.index], Some(&corpus))
                })
                .collect();
            layers::count_corpus(t, &before, &corpus.stats());
            (shortlist, composed)
        });
        // The counterfactual, outside the op: what the pruned pairs would
        // have cost the pipeline.
        let pipeline = layers::runner_pipeline(&pipeline_config, repository.len());
        let ((), s) = timed(|| {
            tracer.span("discovery.counterfactual", |t| {
                for entry in &shortlist.pruned {
                    layers::run_pair(t, &pipeline, &repository[entry.index], Some(&corpus));
                }
            })
        });
        saved_s += s;
        pruned += shortlist.pruned.len() + shortlist.pruned_by_budget.len();
        considered += shortlist.considered;

        let mut failures = discovery_failures(i, &outcome, repository);
        if shortlist != outcome.shortlist {
            failures.push(format!(
                "op {i}: traced shortlist differs from discover_and_run's"
            ));
        }
        for ((name, _, expected), got) in batch_results(&outcome.outcome).iter().zip(&composed) {
            if expected != got {
                failures.push(format!(
                    "op {i}: traced pair {name} differs from its batch report"
                ));
            }
        }
        checks.op(failures);
    }
    let gauges = BTreeMap::from([
        (
            "discovery.pruning_ratio",
            pruned as f64 / considered.max(1) as f64,
        ),
        (
            "discovery.saved_per_cost",
            if shortlist_s > 0.0 {
                saved_s / shortlist_s
            } else {
                0.0
            },
        ),
    ]);
    Traced {
        tracer,
        untraced_op_s,
        gauges,
        checks,
        incremental: false,
    }
}
