//! `serve_stream`: one op is `JoinService::submit` + `run_next` of one
//! request from a hot-skewed stream over a few distinct repositories. Each
//! repository is mostly large non-joinable columns plus one tiny joinable
//! pair, so the resident corpus and the matcher carry a large
//! share; the byte budget holds about half of the distinct working set, so
//! hits, misses and evictions all recur at steady state.
//!
//! Set-up builds the service and primes it with each distinct repository
//! once. Every op's outcome must equal the cold outcome its repository had
//! during priming: a warm (hit) run and a cold (miss) run agree.

use std::collections::BTreeMap;

use tjoin_datasets::{ColumnPair, RepositoryConfig, RequestWorkloadConfig};
use tjoin_join::{BatchJoinOutcome, JoinPipelineConfig};
use tjoin_serve::{JoinService, ServeConfig};
use tjoin_text::ServeStats;

use crate::layers::{self, batch_failures, batch_results, ReportResult};
use crate::metrics::{
    self, repeat_setup, summed_f1, timed, Checks, OpSamples, Report, Traced, Untraced,
};
use crate::trace::Tracer;
use crate::{threads, Args};

/// Ops per nominal second.
const OPS_PER_SECOND: f64 = 40.0;
/// Fewest ops: enough for a p90 with ten samples beyond it.
const MIN_OPS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct repositories in the stream.
const DISTINCT: usize = 6;
/// The generator's format families, in its cycle order: names, emails,
/// phones, dates, products, user ids.
const FAMILIES: usize = 6;
const PHONES: usize = 2;
const DATES: usize = 3;
/// Rows of the large non-joinable columns.
const LARGE_ROWS: usize = 400;
/// The non-joinable pairs, as (source family, target family). Each pairs a
/// column of letters with a column of digits and separators, so they share
/// no gram and the matcher finds no candidate: their cost is the corpus
/// and the matcher scan alone.
const NON_JOINABLE: [(usize, usize); 8] = [
    (0, DATES),
    (0, PHONES),
    (1, DATES),
    (5, PHONES),
    (DATES, 0),
    (PHONES, 1),
    (DATES, 5),
    (PHONES, 0),
];
/// Rows of the one tiny joinable pair per repository: dates, whose fixed
/// width keeps its synthesis cost from swinging with the seed the way the
/// length of generated names makes it swing.
const JOINABLE_ROWS: usize = 3;
/// Resident-corpus byte budget: about half of the distinct working set
/// (~93 MB).
const BYTE_BUDGET: usize = 45 << 20;

/// The distinct repositories and the request order.
fn generate(seed: u64, ops: usize) -> (Vec<Vec<ColumnPair>>, Vec<usize>) {
    let repositories = (0..DISTINCT)
        .map(|i| {
            let seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
            let large = RepositoryConfig::new(FAMILIES, LARGE_ROWS)
                .with_decoys(0.0)
                .with_noise(0.0)
                .generate(seed);
            let mut repository: Vec<ColumnPair> = NON_JOINABLE
                .iter()
                .map(|&(s, t)| {
                    ColumnPair::new(
                        format!("apart-{}-{}", large[s].name, large[t].name),
                        large[s].source.clone(),
                        large[t].target.clone(),
                        Vec::new(),
                    )
                })
                .collect();
            let small = RepositoryConfig::new(DATES + 1, JOINABLE_ROWS)
                .with_decoys(0.0)
                .with_noise(0.0)
                .generate(seed ^ 0x5eed);
            repository.push(small[DATES].clone());
            repository
        })
        .collect();
    // Only the hot-skewed request order is taken from the stream
    // generator; its own repositories are minimal and unused.
    let sequence = RequestWorkloadConfig {
        distinct: DISTINCT,
        requests: ops,
        repository: RepositoryConfig::new(1, 1),
    }
    .generate(seed)
    .sequence;
    (repositories, sequence)
}

/// Micro-F1 over the distinct pairs the run joined, each counted once:
/// every op's outcome equals its repository's cold outcome (checked), so
/// the cold outcomes are the run's results.
fn distinct_f1(cold: &[Vec<ReportResult>]) -> f64 {
    summed_f1(cold.iter().flatten().map(|(_, _, result)| result.metrics))
}

fn service() -> JoinService {
    JoinService::new(
        JoinPipelineConfig::paper_default(),
        threads(),
        ServeConfig {
            byte_budget: Some(BYTE_BUDGET),
            ..ServeConfig::default()
        },
    )
}

/// One request through the service: submit, then run it.
fn request(service: &JoinService, repository: Vec<ColumnPair>) -> BatchJoinOutcome {
    service
        .submit(repository)
        .expect("a closed loop never fills the queue");
    service.run_next().expect("the request just submitted").1
}

/// A primed service with every distinct repository's cold outcome.
struct Primed {
    service: JoinService,
    cold: Vec<Vec<ReportResult>>,
}

fn prime(repositories: &[Vec<ColumnPair>]) -> Primed {
    let service = service();
    let cold = repositories
        .iter()
        .map(|repository| batch_results(&request(&service, repository.clone())))
        .collect();
    Primed { service, cold }
}

pub fn run(args: &Args) -> Report {
    let ops = args.ops(OPS_PER_SECOND, MIN_OPS);
    if args.trace {
        return metrics::per_layer(traced(args, ops), args);
    }
    let ((repositories, sequence, primed), setup_s) = repeat_setup(SETUPS, 1, || {
        let (repositories, sequence) = generate(args.seed, ops);
        let primed = prime(&repositories);
        (repositories, sequence, primed)
    });

    let mut checks = Checks::default();
    let mut samples = OpSamples::default();
    for (i, &r) in sequence.iter().enumerate() {
        let repository = repositories[r].clone();
        let outcome = samples.time(|| request(&primed.service, repository));
        let mut failures = batch_failures(&outcome, &repositories[r], &format!("op {i}"));
        if batch_results(&outcome) != primed.cold[r] {
            failures.push(format!("op {i}: repository {r} differs from its cold run"));
        }
        checks.op(failures);
    }
    metrics::end_to_end(Untraced {
        setup_s,
        ops: samples,
        checks,
        micro_f1: distinct_f1(&primed.cold),
    })
}

/// Each op twice, on two identically primed services: untraced through
/// `submit` + `run_next` on one, and traced on the other through the
/// same resident-corpus calls `JoinService` makes (`reserve` at submit;
/// `begin`, the pairs, and `release` at run), the pairs driven through
/// the layers with the per-pair thread budget the runner would use.
fn traced(args: &Args, ops: usize) -> Traced {
    let mut tracer = Tracer::new();
    let (repositories, sequence) = tracer.span("datasets.generate", |_| generate(args.seed, ops));
    let reference = prime(&repositories);
    let traced_service = prime(&repositories).service;
    let resident = traced_service.resident();
    let corpus = resident.corpus();
    let pipeline =
        layers::runner_pipeline(&JoinPipelineConfig::paper_default(), repositories[0].len());

    let before: ServeStats = resident.stats();
    let mut misses_so_far = before.misses;
    let mut cold_requests = 0;
    let mut checks = Checks::default();
    let mut untraced_op_s = Vec::with_capacity(ops);
    for (i, &r) in sequence.iter().enumerate() {
        let repository = repositories[r].clone();
        let (outcome, s) = timed(|| request(&reference.service, repository));
        untraced_op_s.push(s);
        let repository = &repositories[r];
        let composed = tracer.op(i as u64 + 1, "op", |t| {
            let mut reservation = t.span("serve.submit", |_| resident.reserve(repository));
            t.span("serve.run", |t| {
                resident.begin(&mut reservation);
                let before = corpus.stats();
                let results: Vec<_> = repository
                    .iter()
                    .map(|pair| layers::run_pair(t, &pipeline, pair, Some(corpus)))
                    .collect();
                // Eviction happens only at release: count before it.
                layers::count_corpus(t, &before, &corpus.stats());
                resident.release(reservation);
                results
            })
        });
        let mut failures = batch_failures(&outcome, repository, &format!("op {i}"));
        let expected = batch_results(&outcome);
        if expected != reference.cold[r] {
            failures.push(format!("op {i}: repository {r} differs from its cold run"));
        }
        for ((name, _, expected), got) in expected.iter().zip(&composed) {
            if expected != got {
                failures.push(format!(
                    "op {i}: traced pair {name} differs from the service's report"
                ));
            }
        }
        checks.op(failures);
        // A cold request built at least one column; a warm one none.
        let misses = resident.stats().misses;
        if misses > misses_so_far {
            cold_requests += 1;
        }
        misses_so_far = misses;
    }
    let after = resident.stats();
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let gauges = BTreeMap::from([
        ("serve.hit_ratio", hits / (hits + misses).max(1.0)),
        (
            "serve.evictions",
            (after.evictions - before.evictions) as f64,
        ),
        ("serve.bytes_resident", after.bytes_resident as f64),
        (
            "serve.cold_request_ratio",
            cold_requests as f64 / ops as f64,
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
