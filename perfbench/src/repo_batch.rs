//! `repo_batch`: one op is `BatchJoinRunner::run` on a fresh generated
//! repository of 12 pairs × ~80 rows (5 % noise, 25 % decoys, paper
//! defaults) under the machine's thread budget — the repository-run shape
//! the project's performance goals are stated in.
//!
//! The last op repeats the first op's repository; after the timed ops its
//! outcome must equal the first op's and `BatchJoinRunner::run_static`'s.

use std::collections::BTreeMap;

use tjoin_datasets::{ColumnPair, RepositoryConfig};
use tjoin_join::{BatchJoinRunner, JoinPipelineConfig};

use crate::layers::{self, batch_failures, batch_results};
use crate::metrics::{
    self, repeat_setup, summed_f1, timed, Checks, OpSamples, Report, Traced, Untraced,
};
use crate::trace::Tracer;
use crate::{par_map, threads, Args};

/// Ops per nominal second. One op takes 3–4.5 s on 2 cores, and the
/// `run_static` check costs one more, so the whole run takes about
/// `--seconds`.
const OPS_PER_SECOND: f64 = 0.2;
/// Fewest ops in a run: two distinct repositories plus the repeat.
const MIN_OPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Complete set-ups in one timed interval: generating the op stream once
/// takes about 2.5 ms, so one interval takes about 0.2 s.
const SETUP_ROUNDS: usize = 80;

fn repository_config() -> RepositoryConfig {
    RepositoryConfig::new(12, 80)
}

/// The op stream's repositories: `ops - 1` distinct ones, then the first
/// one again.
fn generate(seed: u64, ops: usize) -> Vec<Vec<ColumnPair>> {
    let config = repository_config();
    let mut repositories = par_map(ops - 1, |i| {
        config.generate(seed.wrapping_mul(1_000).wrapping_add(i as u64))
    });
    repositories.push(repositories[0].clone());
    repositories
}

pub fn run(args: &Args) -> Report {
    let ops = args.ops(OPS_PER_SECOND, MIN_OPS);
    let runner = BatchJoinRunner::new(JoinPipelineConfig::paper_default(), threads());
    if args.trace {
        return metrics::per_layer(traced(args, ops, &runner), args);
    }

    let (repositories, setup_s) = repeat_setup(SETUPS, SETUP_ROUNDS, || generate(args.seed, ops));
    let mut samples = OpSamples::default();
    let mut outcomes = Vec::with_capacity(ops);
    for repository in &repositories {
        let outcome = samples.time(|| runner.run(repository));
        outcomes.push(outcome);
    }

    let repeat = ops - 1;
    let oracle = runner.run_static(&repositories[repeat]);
    let mut checks = Checks::default();
    for (i, (outcome, repository)) in outcomes.iter().zip(&repositories).enumerate() {
        let mut failures = batch_failures(outcome, repository, &format!("op {i}"));
        if i == repeat {
            let repeated = batch_results(outcome);
            if repeated != batch_results(&outcomes[0]) {
                failures.push(format!("op {i}: the repeated repository differs from op 0"));
            }
            if repeated != batch_results(&oracle) {
                failures.push(format!("op {i}: outcome differs from run_static"));
            }
        }
        checks.op(failures);
    }
    metrics::end_to_end(Untraced {
        setup_s,
        ops: samples,
        checks,
        micro_f1: summed_f1(outcomes[..repeat].iter().map(|o| o.metrics.micro)),
    })
}

/// Each op twice: untraced through `BatchJoinRunner::run` (for the
/// overhead and the check), then traced pair by pair through the layers,
/// with the per-pair thread budget the runner would give it.
fn traced(args: &Args, ops: usize, runner: &BatchJoinRunner) -> Traced {
    let mut tracer = Tracer::new();
    let repositories = tracer.span("datasets.generate", |_| generate(args.seed, ops));
    let config = JoinPipelineConfig::paper_default();
    let pipeline = layers::runner_pipeline(&config, repository_config().pairs);

    let mut checks = Checks::default();
    let mut untraced_op_s = Vec::with_capacity(ops);
    for (i, repository) in repositories.iter().enumerate() {
        let (outcome, s) = timed(|| runner.run(repository));
        untraced_op_s.push(s);
        // The runner builds one corpus per run; so does the traced op.
        let composed = tracer.op(i as u64 + 1, "op", |t| {
            let corpus = layers::run_corpus(&config);
            let before = corpus.stats();
            let results: Vec<_> = repository
                .iter()
                .map(|pair| layers::run_pair(t, &pipeline, pair, Some(&corpus)))
                .collect();
            layers::count_corpus(t, &before, &corpus.stats());
            results
        });
        let mut failures = batch_failures(&outcome, repository, &format!("op {i}"));
        for ((name, _, expected), got) in batch_results(&outcome).iter().zip(&composed) {
            if expected != got {
                failures.push(format!(
                    "op {i}: traced pair {name} differs from its batch report"
                ));
            }
        }
        checks.op(failures);
    }
    Traced {
        tracer,
        untraced_op_s,
        gauges: BTreeMap::new(),
        checks,
        incremental: false,
    }
}
