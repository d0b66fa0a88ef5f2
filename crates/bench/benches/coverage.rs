//! Coverage-phase benchmark: the naive per-row trial loop (retained in
//! `tjoin_core::coverage::reference`) vs the interned engine (unit pool +
//! per-row output memoization + bitset cache + bitmap coverage).
//!
//! Besides the criterion benchmarks, `coverage_comparison` times both paths
//! head-to-head on a synthetic workload of 2,304 transformations × 200 rows
//! and writes a machine-readable summary to `BENCH_coverage.json` at the
//! workspace root, so the perf trajectory of the dominant phase is tracked
//! from PR 1 onward.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tjoin_bench::time_seconds;
use tjoin_core::coverage::reference::compute_coverage_reference;
use tjoin_core::coverage::{compute_coverage, CoverageOutcome};
use tjoin_core::{PairSet, SynthesisConfig};
use tjoin_units::{Transformation, Unit};

/// Rows in the shape of the paper's running example ("last, first" →
/// "f last"), padded so unit applications do real character work.
fn workload_rows(rows: usize) -> PairSet {
    let raw: Vec<(String, String)> = (0..rows)
        .map(|i| {
            (
                format!("lastname{i:03}, firstname{i:03} middle{:02}", i % 37),
                format!("f{i:03} lastname{i:03}"),
            )
        })
        .collect();
    PairSet::from_strings(&raw, &SynthesisConfig::default().normalize)
}

/// A candidate set shaped like real generation output: the Cartesian product
/// of a small unit pool, so the same units recur across many candidates
/// (which is exactly what the cache and the memoization exploit).
fn workload_transformations() -> Vec<Transformation> {
    let mut first_units = Vec::new();
    let mut middle_units = Vec::new();
    let mut last_units = Vec::new();
    for k in 0..16usize {
        first_units.push(Unit::split_substr(' ', 1, k % 4, k % 4 + 1));
        first_units.push(Unit::substr(k, k + 4));
        middle_units.push(Unit::literal(if k % 2 == 0 { " " } else { "-" }));
        middle_units.push(Unit::literal(format!("{k:02}")));
        last_units.push(Unit::split(',', k % 3));
        last_units.push(Unit::split_substr(',', 0, k % 5, k % 5 + 6));
    }
    let mut ts = Vec::new();
    for f in &first_units {
        for m in &middle_units {
            for l in last_units.iter().step_by(4) {
                ts.push(Transformation::new(vec![f.clone(), m.clone(), l.clone()]));
            }
        }
    }
    ts
}

fn assert_outcomes_identical(a: &CoverageOutcome, b: &CoverageOutcome) {
    assert_eq!(a.covered_rows, b.covered_rows, "covered rows diverged");
    assert_eq!(a.trials, b.trials, "trial counts diverged");
    assert_eq!(a.cache_hits, b.cache_hits, "cache-hit counts diverged");
    assert_eq!(a.potential_trials, b.potential_trials);
}

fn bench_coverage_interned(c: &mut Criterion) {
    let pairs = workload_rows(200);
    let ts = workload_transformations();
    let mut group = c.benchmark_group("coverage_interned");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(compute_coverage_reference(black_box(&ts), &pairs, true)))
    });
    group.bench_function("interned", |b| {
        b.iter(|| black_box(compute_coverage(black_box(&ts), &pairs, true, 1)))
    });
    group.finish();
}

fn coverage_comparison(_c: &mut Criterion) {
    let pairs = workload_rows(200);
    let ts = workload_transformations();
    assert!(
        ts.len() >= 2_000,
        "workload must have at least 2,000 transformations, got {}",
        ts.len()
    );

    let reference_outcome = compute_coverage_reference(&ts, &pairs, true);
    let interned_outcome = compute_coverage(&ts, &pairs, true, 1);
    assert_outcomes_identical(&reference_outcome, &interned_outcome);

    let samples = 11;
    let reference_secs = time_seconds(samples, || {
        black_box(compute_coverage_reference(black_box(&ts), &pairs, true));
    });
    let interned_secs = time_seconds(samples, || {
        black_box(compute_coverage(black_box(&ts), &pairs, true, 1));
    });
    let speedup = reference_secs / interned_secs;

    let summary = format!(
        "{{\n  \"benchmark\": \"coverage_interned\",\n  \"transformations\": {},\n  \"rows\": {},\n  \"use_cache\": true,\n  \"samples\": {},\n  \"reference_median_seconds\": {:.6},\n  \"interned_median_seconds\": {:.6},\n  \"speedup\": {:.2},\n  \"outcomes_bit_identical\": true,\n  \"reference_unit_evaluations\": {},\n  \"interned_unit_evaluations\": {}\n}}\n",
        ts.len(),
        pairs.len(),
        samples,
        reference_secs,
        interned_secs,
        speedup,
        reference_outcome.unit_evaluations,
        interned_outcome.unit_evaluations,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_coverage.json");
    std::fs::write(path, &summary).expect("write BENCH_coverage.json");
    println!(
        "coverage_comparison: speedup {speedup:.2}x (reference {reference_secs:.4}s vs interned {interned_secs:.4}s per iter)"
    );
    println!("summary written to {path}");
    assert!(
        speedup >= 2.0,
        "interned coverage must be at least 2x faster, got {speedup:.2}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_coverage_interned, coverage_comparison
}
criterion_main!(benches);
