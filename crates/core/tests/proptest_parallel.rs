//! Thread-invariance suite for parallel coverage: at every thread count in
//! {1, 2, 3, 4, 7}, cache on and off, the whole `CoverageOutcome` (apply
//! time aside) must equal the 1-thread outcome; the 1-thread outcome must
//! match the naive oracle retained in `coverage::reference`; and the
//! downstream lazy-greedy selection must match the full-rescan oracle
//! `greedy_cover_reference`.
//!
//! Coverage splits the rows into contiguous chunks only for shapes with at
//! least 256 candidates or 256 rows, so the generators straddle that line.
//! The `#[ignore]`d test at the bottom is the slow large-shape leg, run in
//! CI via `cargo test -p tjoin-core -- --ignored`.

use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;
use tjoin_core::cover::reference::greedy_cover_reference;
use tjoin_core::cover::{lazy_greedy_cover_budgeted, ScoredTransformation};
use tjoin_core::coverage::reference::compute_coverage_reference;
use tjoin_core::coverage::{compute_coverage, CoverageOutcome};
use tjoin_core::{PairSet, RowBitmap};
use tjoin_text::NormalizeOptions;
use tjoin_units::{Transformation, TransformationSet, Unit};

const THREADS: [usize; 5] = [1, 2, 3, 4, 7];

fn any_unit() -> impl Strategy<Value = Unit> {
    let pos = || 0usize..10;
    let delim = || prop_oneof![Just(','), Just(' '), Just('-')];
    prop_oneof![
        (pos(), pos()).prop_map(|(a, b)| Unit::substr(a.min(b), a.max(b))),
        (delim(), 0usize..3).prop_map(|(d, i)| Unit::split(d, i)),
        (delim(), 0usize..3, pos(), pos())
            .prop_map(|(d, i, a, b)| Unit::split_substr(d, i, a.min(b), a.max(b))),
        "[a-z, ]{0,3}".prop_map(Unit::literal),
    ]
}

/// Transformations drawn from a small shared unit pool, so the same units
/// recur across candidates — the shape the per-row cache and memo exploit.
/// Half the lists are short (including empty, the degenerate path), half
/// hold at least 256 candidates, so rows are chunked across threads even
/// when they are few.
fn pooled_transformations() -> impl Strategy<Value = Vec<Transformation>> {
    (prop::collection::vec(any_unit(), 2..6), 0usize..300).prop_map(|(pool, picks)| {
        let n = pool.len();
        let count = if picks % 2 == 0 { picks % 36 } else { 256 + picks % 48 };
        (0..count)
            .map(|t| {
                Transformation::new(
                    (0..t % 3 + 1).map(|j| pool[(t * 5 + j * 2 + picks) % n].clone()).collect(),
                )
            })
            .collect()
    })
}

/// Row sets from empty up to more rows than the largest thread count.
fn random_rows() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("[a-z, -]{0,12}", "[a-z, -]{0,8}"), 0..24)
}

/// The unbudgeted lazy-greedy cover, which cannot abort.
fn lazy_greedy_cover(pool: Vec<ScoredTransformation>, rows: usize) -> TransformationSet {
    lazy_greedy_cover_budgeted(pool, rows, None).expect("no budget")
}

/// Runs the downstream selection over per-candidate covered rows with
/// `select` and renders the selected set for comparison.
fn selection(
    ts: &[Transformation],
    covered_rows: &[Vec<u32>],
    rows: usize,
    select: fn(Vec<ScoredTransformation>, usize) -> TransformationSet,
) -> Vec<(String, Vec<u32>)> {
    let pool: Vec<ScoredTransformation> = ts
        .iter()
        .zip(covered_rows)
        .map(|(t, covered)| ScoredTransformation {
            transformation: t.clone(),
            covered: RowBitmap::from_sorted_rows(rows, covered),
        })
        .collect();
    select(pool, rows)
        .transformations
        .iter()
        .map(|t| (t.transformation.to_string(), t.covered_rows.clone()))
        .collect()
}

fn timeless(outcome: CoverageOutcome) -> CoverageOutcome {
    CoverageOutcome { apply_time: Duration::ZERO, ..outcome }
}

/// Asserts thread invariance, the serial oracle and the selection oracle
/// for one input.
fn check_threads(ts: &[Transformation], rows: &[(String, String)], use_cache: bool) {
    let set = PairSet::from_strings(rows, &NormalizeOptions::none());
    let serial = timeless(compute_coverage(ts, &set, use_cache, 1));

    let reference = compute_coverage_reference(ts, &set, use_cache);
    assert_eq!(serial.covered_rows, reference.covered_rows, "cache={use_cache}");
    assert_eq!(serial.trials, reference.trials, "cache={use_cache}");
    assert_eq!(serial.cache_hits, reference.cache_hits, "cache={use_cache}");
    assert_eq!(serial.potential_trials, reference.potential_trials);
    assert_eq!(serial.trials + serial.cache_hits, serial.potential_trials);
    let distinct_units: HashSet<&Unit> = ts.iter().flat_map(|t| t.units()).collect();
    assert!(serial.unit_evaluations <= (set.len() * distinct_units.len()) as u64);
    assert_eq!(
        selection(ts, &serial.covered_rows, set.len(), lazy_greedy_cover),
        selection(ts, &reference.covered_rows, set.len(), greedy_cover_reference),
        "selections diverged (cache={use_cache})"
    );

    for threads in &THREADS[1..] {
        let out = timeless(compute_coverage(ts, &set, use_cache, *threads));
        assert_eq!(out, serial, "threads={threads} cache={use_cache}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fast leg: random pooled candidate lists and row sets at every
    /// thread count, cache on and off.
    #[test]
    fn outcome_is_thread_invariant(
        ts in pooled_transformations(),
        rows in random_rows(),
        use_cache in prop_oneof![Just(true), Just(false)],
    ) {
        check_threads(&ts, &rows, use_cache);
    }
}

/// Deterministic workload shaped like generation output: a Cartesian
/// product over a small unit vocabulary, with interleaved ordering so
/// neighbouring candidates still share units.
fn cartesian_workload(candidates: usize, stride: usize) -> Vec<Transformation> {
    let firsts: Vec<Unit> =
        (0..6).map(|k| Unit::split_substr(' ', 1, k % 3, k % 3 + 1)).collect();
    let middles: Vec<Unit> = vec![Unit::literal(" "), Unit::literal("-"), Unit::literal("")];
    let lasts: Vec<Unit> = (0..4).map(|k| Unit::split(',', k % 2)).collect();
    let mut product = Vec::new();
    for f in &firsts {
        for m in &middles {
            for l in &lasts {
                product.push(Transformation::new(vec![f.clone(), m.clone(), l.clone()]));
            }
        }
    }
    (0..candidates).map(|i| product[(i * stride) % product.len()].clone()).collect()
}

fn name_rows(rows: usize) -> Vec<(String, String)> {
    (0..rows)
        .map(|i| {
            let target = match i % 3 {
                0 => format!("l{i:05} f{:02}", i % 41),
                1 => format!("f{:02}-l{i:05}", i % 41),
                _ => format!("noise {i}"),
            };
            (format!("l{i:05}, f{:02}", i % 41), target)
        })
        .collect()
}

// --- Slow leg (CI: `cargo test -p tjoin-core -- --ignored`) ---

/// Large shapes, each at least 256 on one side so every thread count
/// above 1 chunks the rows (uneven final chunks included). Deterministic,
/// no shrinking needed at this size.
#[test]
#[ignore = "slow large-shape thread-invariance sweep; run with -- --ignored"]
fn outcome_is_thread_invariant_at_scale() {
    for (candidates, rows) in [
        (600usize, 400usize), // both sides plentiful
        (64, 2_000),          // few candidates, many rows (GXJoin-style pool)
        (700, 50),            // many candidates, fewer rows
        (700, 3),             // few rows, many candidates: rows < threads
        (257, 129),           // prime-ish: uneven chunks
    ] {
        let ts = cartesian_workload(candidates, 7);
        let row_set = name_rows(rows);
        for use_cache in [true, false] {
            check_threads(&ts, &row_set, use_cache);
        }
    }
}
