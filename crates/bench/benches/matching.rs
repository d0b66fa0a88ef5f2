//! Benchmarks for the row-matching substrate: inverted-index construction
//! and Algorithm 1 candidate-pair detection.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tjoin_datasets::SyntheticConfig;
use tjoin_matching::NGramMatcher;
use tjoin_text::NGramIndex;

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ngram_index_build");
    group.sample_size(20);
    for rows in [100usize, 500] {
        let dataset = SyntheticConfig::synth(rows).generate(1);
        let column = dataset.column_pair().target;
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(NGramIndex::build(black_box(&column), 4, 20)))
        });
    }
    group.finish();
}

fn bench_row_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_matching_algorithm1");
    group.sample_size(10);
    for rows in [50usize, 200] {
        let pair = SyntheticConfig::synth(rows).generate(2).column_pair();
        let matcher = NGramMatcher::with_defaults();
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(matcher.try_find_candidates(black_box(&pair), None, None)))
        });
    }
    group.finish();
}

fn bench_open_data_matching(c: &mut Criterion) {
    // The skewed address workload: the matcher's worst case.
    let pair = tjoin_datasets::realistic::open_data(1, 400).column_pair();
    let matcher = NGramMatcher::with_defaults();
    let mut group = c.benchmark_group("row_matching_open_data");
    group.sample_size(10);
    group.bench_function("open_data_400_rows", |b| {
        b.iter(|| black_box(matcher.try_find_candidates(black_box(&pair), None, None)))
    });
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_row_matching, bench_open_data_matching);
criterion_main!(benches);
