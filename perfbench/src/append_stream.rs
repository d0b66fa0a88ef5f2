//! `append_stream`: one op is `IncrementalJoin::append` of one step of a
//! hot-skewed append stream over a decoy-free repository (golden
//! matching, the machine's thread budget inside the pipeline, so the
//! equi-join's parallel path is live). Incremental coverage and the
//! transformed equi-join do the timed work; synthesis runs only in set-up
//! (`IncrementalJoin::new` is a full pipeline run per pair) and on a
//! resynthesis, which the clean stream never triggers.
//!
//! This workload writes: its pairs grow as it runs. After the timed ops,
//! each grown pair's join results must equal a fresh `JoinPipeline::run`
//! on the grown pair.

use std::collections::BTreeMap;

use tjoin_datasets::{row_id, AppendStep, AppendWorkloadConfig, ColumnPair, RepositoryConfig};
use tjoin_join::{
    IncrementalCoverage, IncrementalJoin, IncrementalJoinConfig, JoinMetrics, JoinOutcome,
    JoinPipeline, JoinPipelineConfig, RowMatchingStrategy,
};
use tjoin_matching::golden_value_pairs;

use crate::metrics::{
    self, repeat_setup, summed_f1, timed, Checks, OpSamples, Report, Traced, Untraced,
};
use crate::trace::Tracer;
use crate::{threads, Args};

/// Ops per nominal second.
const OPS_PER_SECOND: f64 = 30.0;
/// Fewest ops: enough for a p90 with ten samples beyond it.
const MIN_OPS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Base repository: pairs and rows per pair.
const PAIRS: usize = 4;
const ROWS: usize = 150;
/// Rows each append step adds.
const ROWS_PER_APPEND: usize = 2;

fn config() -> JoinPipelineConfig {
    JoinPipelineConfig {
        matching: RowMatchingStrategy::Golden,
        ..JoinPipelineConfig::paper_default()
    }
    .with_threads(threads())
}

fn generate(seed: u64, ops: usize) -> tjoin_datasets::AppendWorkload {
    AppendWorkloadConfig {
        repository: RepositoryConfig::new(PAIRS, ROWS).with_decoys(0.0),
        appends: ops,
        rows_per_append: ROWS_PER_APPEND,
    }
    .generate(seed)
}

fn live_joins(base: &[ColumnPair]) -> Vec<IncrementalJoin> {
    base.iter()
        .map(|pair| IncrementalJoin::new(config(), IncrementalJoinConfig::default(), pair.clone()))
        .collect()
}

/// Per-op checks: the append took every row, and the maintained coverage
/// spans exactly the pair's golden rows.
fn step_failures(
    i: usize,
    join: &IncrementalJoin,
    appended: usize,
    step: &AppendStep,
) -> Vec<String> {
    let mut failures = Vec::new();
    if appended != step.rows.len() {
        failures.push(format!(
            "op {i}: appended {appended} of {} rows",
            step.rows.len()
        ));
    }
    if join.coverage().rows() != join.pair().golden.len() {
        failures.push(format!(
            "op {i}: coverage spans {} rows, the pair has {}",
            join.coverage().rows(),
            join.pair().golden.len()
        ));
    }
    failures
}

/// A join outcome's results, independent of the greedy selection order:
/// the selected transformations (rendered) with their covered rows, the
/// predicted row pairs, and their quality.
type UnorderedResults = (Vec<(String, Vec<u32>)>, Vec<(u32, u32)>, JoinMetrics);

/// Sorts an outcome into [`UnorderedResults`]. Appends can reorder the
/// cover (a later transformation may now cover more rows), which reorders
/// the predicted pairs without changing them.
fn unordered_results(outcome: &JoinOutcome) -> UnorderedResults {
    let mut transformations: Vec<(String, Vec<u32>)> = outcome
        .transformations
        .iter()
        .map(|c| (c.transformation.to_string(), c.covered_rows.clone()))
        .collect();
    transformations.sort();
    let mut predicted = outcome.predicted_pairs.clone();
    predicted.sort_unstable();
    (transformations, predicted, outcome.metrics)
}

/// Records every op's checks. The final-state check runs once the ops are
/// done: every grown pair's results must equal a fresh pipeline run's on
/// the grown pair. A failure counts against the last op that grew it.
fn record(
    checks: &mut Checks,
    mut op_failures: Vec<Vec<String>>,
    steps: &[AppendStep],
    joins: &[IncrementalJoin],
) {
    let pipeline = JoinPipeline::new(config());
    for (pair, join) in joins.iter().enumerate() {
        let Some(last) = steps.iter().rposition(|step| step.pair == pair) else {
            continue;
        };
        let fresh = pipeline.run(join.pair());
        if unordered_results(join.outcome()) != unordered_results(&fresh) {
            op_failures[last].push(format!(
                "op {last}: grown pair {} differs from a fresh pipeline run",
                join.pair().name
            ));
        }
    }
    for failures in op_failures {
        checks.op(failures);
    }
}

pub fn run(args: &Args) -> Report {
    let ops = args.ops(OPS_PER_SECOND, MIN_OPS);
    if args.trace {
        return metrics::per_layer(traced(args, ops), args);
    }
    let ((workload, mut joins), setup_s) = repeat_setup(SETUPS, 1, || {
        let workload = generate(args.seed, ops);
        let joins = live_joins(&workload.base);
        (workload, joins)
    });

    let mut samples = OpSamples::default();
    let mut op_failures = Vec::with_capacity(ops);
    for (i, step) in workload.steps.iter().enumerate() {
        let join = &mut joins[step.pair];
        let report = samples.time(|| join.append(&step.rows));
        op_failures.push(step_failures(i, join, report.appended_rows, step));
    }
    let mut checks = Checks::default();
    record(&mut checks, op_failures, &workload.steps, &joins);
    metrics::end_to_end(Untraced {
        setup_s,
        ops: samples,
        checks,
        micro_f1: summed_f1(joins.iter().map(|j| j.outcome().metrics)),
    })
}

/// One pair's incremental state, driven through the layers' public
/// functions exactly as `IncrementalJoin::append` composes them.
struct Composed {
    pipeline: JoinPipeline,
    floor: f64,
    pair: ColumnPair,
    coverage: IncrementalCoverage,
    predicted: Vec<(u32, u32)>,
}

impl Composed {
    fn from_live(join: &IncrementalJoin) -> Self {
        Self {
            pipeline: join.pipeline().clone(),
            floor: IncrementalJoinConfig::default().resynthesis_floor,
            pair: join.pair().clone(),
            coverage: join.coverage().clone(),
            predicted: join.outcome().predicted_pairs.clone(),
        }
    }

    fn append(&mut self, tracer: &mut Tracer, rows: &[(String, String)]) {
        for (source, target) in rows {
            let ids = (
                row_id(self.pair.source.len()),
                row_id(self.pair.target.len()),
            );
            self.pair.source.push(source.clone());
            self.pair.target.push(target.clone());
            self.pair.golden.push(ids);
        }
        let quality = tracer.span("join.incremental.coverage", |_| {
            self.coverage.append_rows(rows)
        });
        if quality < self.floor {
            tracer.count("join.incremental.resyntheses", 1.0);
            let outcome = tracer.span("join.resynthesis", |_| self.pipeline.run(&self.pair));
            let synthesis = &self.pipeline.config().synthesis;
            self.coverage = IncrementalCoverage::new(
                outcome
                    .transformations
                    .iter()
                    .map(|c| c.transformation.clone())
                    .collect(),
                &golden_value_pairs(&self.pair),
                synthesis.normalize,
                synthesis.unit_cache,
                synthesis.threads,
            );
            self.predicted = outcome.predicted_pairs;
        } else {
            let (predicted, _) = tracer.span("join.equi_join", |_| {
                self.pipeline
                    .join_with_transformations(&self.pair, self.coverage.transformations())
            });
            self.predicted = predicted;
        }
        tracer.count("join.predicted_pairs", self.predicted.len() as f64);
    }
}

/// Each op twice: untraced through `IncrementalJoin::append` (for the
/// overhead and the check), then traced through its layers on a copy of
/// the same state.
fn traced(args: &Args, ops: usize) -> Traced {
    let mut tracer = Tracer::new();
    let workload = tracer.span("datasets.generate", |_| generate(args.seed, ops));
    let mut joins = live_joins(&workload.base);
    let mut composed: Vec<Composed> = joins.iter().map(Composed::from_live).collect();

    let mut untraced_op_s = Vec::with_capacity(ops);
    let mut op_failures = Vec::with_capacity(ops);
    for (i, step) in workload.steps.iter().enumerate() {
        let join = &mut joins[step.pair];
        let (report, s) = timed(|| join.append(&step.rows));
        untraced_op_s.push(s);
        let state = &mut composed[step.pair];
        tracer.op(i as u64 + 1, "op", |t| state.append(t, &step.rows));
        let mut failures = step_failures(i, join, report.appended_rows, step);
        if state.predicted != join.outcome().predicted_pairs {
            failures.push(format!(
                "op {i}: traced append differs from IncrementalJoin::append"
            ));
        }
        op_failures.push(failures);
    }
    let mut checks = Checks::default();
    record(&mut checks, op_failures, &workload.steps, &joins);
    Traced {
        tracer,
        untraced_op_s,
        gauges: BTreeMap::new(),
        checks,
        incremental: true,
    }
}
