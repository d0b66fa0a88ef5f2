//! Coverage computation with eager filtering (Section 4.1.5 of the paper).
//!
//! Every candidate transformation must be applied to every input pair to
//! learn which rows it covers. Two observations keep this tractable:
//!
//! * A transformation cannot cover a row if the output of *any* of its units
//!   is not a substring of the row's target. Each row therefore remembers
//!   the units already known not to help it (the paper's "cache"); a
//!   transformation containing such a unit is skipped for that row in O(1)
//!   per unit. Because candidates are Cartesian products of a small unit
//!   pool, the same units recur across many transformations and the cache
//!   hit ratio is high (Table 4 reports 50–99 %).
//! * A cheap running length check abandons the application as soon as the
//!   concatenated output exceeds the target length.
//!
//! # The interned engine
//!
//! The production path ([`compute_coverage_planned_budgeted`]) works on the
//! [`UnitPool`] the generation phase already built, and scans the rows in
//! tiles of up to 64 (`TILE`), one bit of a `u64` mask per row. Within a
//! tile, every unit of the pool keeps:
//!
//! * **`bad`**: the rows where the unit is non-covering — it does not apply
//!   to the source, or its output does not occur in the target. This is
//!   the paper's per-row cache. A bit is set only when a trial on that row
//!   reaches the unit, exactly as the naive loop inserts into its cache.
//! * **`evaluated`**: the rows where `output_on` already ran. Each
//!   `(row, unit)` pair is evaluated at most once, however many candidates
//!   contain the unit.
//! * **A span per row**: a covering unit's output as `(offset, len)` into
//!   the row's target, where `target.find` located it, in a block of 64
//!   spans the unit gets when it first covers a row of the tile. Assembling
//!   a candidate's output then compares target bytes with target bytes in
//!   place; nothing is copied.
//!
//! The candidate list is read once per tile, not once per row. A
//! candidate's cache-hit rows are the OR of its units' `bad` masks; only
//! the remaining rows are walked as trials. A walk stops on a `Bad` unit or
//! when the output outgrows the target, never on the first mismatching
//! byte: stopping early would leave later `Bad` units out of the cache and
//! turn later cache hits into trials.
//!
//! Covered rows are collected as sorted per-candidate row lists
//! (`Vec<u32>`), not as a dense [`crate::bitmap::RowBitmap`] per
//! candidate: most candidates cover nothing, and a dense pre-allocation
//! costs `candidates × rows/8` bytes. Tiles are scanned in row order, so
//! each list is sorted by construction. The engine densifies only the
//! candidates that survive the support filter (see
//! [`crate::bitmap::RowBitmap::from_sorted_rows`]).
//!
//! On any one row, candidates are tried in input order and the cache holds
//! only the `Bad` verdicts of earlier trials on that row, in the tiled scan
//! as in the naive transformation-major loop kept in
//! [`reference`](mod@reference). So `covered_rows`, `trials`, `cache_hits`
//! and `potential_trials` are identical to the reference, which collects
//! densely and is the oracle for the sparse lists too.
//!
//! # Parallel execution
//!
//! With `threads > 1` the rows are split into `min(threads, rows)`
//! contiguous chunks, and each worker tiles its own chunk; one chunk is
//! the serial engine. Shapes with fewer than 256 candidates and fewer than
//! 256 rows always scan in one chunk, because thread start-up costs more
//! than a second core buys there. The per-candidate row lists of
//! consecutive chunks concatenate, in chunk order, into the sorted global
//! lists. The cache is per row and chunks share no rows, so every counter
//! — `covered_rows`, `trials`, `cache_hits`, `potential_trials` and
//! `unit_evaluations` — is identical at every thread count.

use crate::pair::PairSet;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::{Duration, Instant};
use tjoin_text::{BudgetExceeded, BudgetToken};
use tjoin_units::{IdTransformation, Transformation, UnitPool};

/// Compatibility residue of the retired coverage-axis knob: coverage always
/// chunks rows, so the knob has one value and no effect. It is deleted
/// together with `SynthesisConfig::coverage_axis` and the `axis` parameter
/// of [`compute_coverage_planned_budgeted`] once `perfbench`, which still
/// passes them, is next updated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageAxis {
    /// The only value.
    #[default]
    Auto,
}

/// Shapes with fewer than this many candidates *and* fewer than this many
/// rows scan in one chunk (see the module docs).
const MIN_PARALLEL_SIDE: usize = 256;

/// A candidate's covered rows as a sorted list of row indices — the sparse
/// per-chunk collection format (see the module docs).
pub type SparseRows = Vec<u32>;

/// The result of the coverage phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageOutcome {
    /// For each transformation (same order as the input slice), the rows it
    /// covers, as a sorted sparse row list. Densify survivors with
    /// [`crate::bitmap::RowBitmap::from_sorted_rows`].
    pub covered_rows: Vec<SparseRows>,
    /// Number of (transformation, row) applications actually attempted.
    pub trials: u64,
    /// Number of (transformation, row) combinations skipped thanks to the
    /// non-covering-unit cache.
    pub cache_hits: u64,
    /// `transformations × rows`: what a pruning-free evaluation would cost.
    pub potential_trials: u64,
    /// Number of `Unit::output_on` evaluations performed: at most one per
    /// `(row, unit)` pair, so below `rows × distinct units`, and the same at
    /// every thread count. The naive reference pays one evaluation per unit
    /// application instead.
    pub unit_evaluations: u64,
    /// Wall-clock time spent applying transformations.
    pub apply_time: Duration,
}

/// Computes the coverage of every transformation over every pair.
///
/// Compatibility entry point over owned [`Transformation`]s: interns them
/// into a fresh [`UnitPool`] and runs the interned engine. Callers that
/// already hold a pool (the synthesis engine) should use
/// [`compute_coverage_planned_budgeted`] directly and skip the re-interning.
///
/// `use_cache` toggles the non-covering-unit cache (pruning strategy 2);
/// `threads` > 1 splits the rows across worker threads (see the module
/// docs: the outcome is the same at every thread count).
pub fn compute_coverage(
    transformations: &[Transformation],
    pairs: &PairSet,
    use_cache: bool,
    threads: usize,
) -> CoverageOutcome {
    let mut pool = UnitPool::new();
    let interned: Vec<IdTransformation> = transformations
        .iter()
        .map(|t| {
            IdTransformation::new(t.units().iter().map(|u| pool.intern(u.clone())).collect())
        })
        .collect();
    compute_coverage_planned_budgeted(
        &pool,
        &interned,
        pairs,
        use_cache,
        threads,
        CoverageAxis::Auto,
        None,
    )
    .expect("unbudgeted coverage cannot abort")
}

/// Computes coverage over pre-interned transformations (the hot path), row
/// chunked across `threads` workers as the module docs describe, under an
/// optional cooperative [`BudgetToken`].
///
/// Every worker checks the token at each tile boundary (at most 64 rows
/// apart), and the whole computation returns `Err` — with no partial
/// outcome — once it trips (only the wall-clock deadline can trip
/// mid-scan; row/byte caps are charged at pipeline admission). `axis` has
/// no effect (see [`CoverageAxis`]).
pub fn compute_coverage_planned_budgeted(
    pool: &UnitPool,
    transformations: &[IdTransformation],
    pairs: &PairSet,
    use_cache: bool,
    threads: usize,
    _axis: CoverageAxis,
    budget: Option<&BudgetToken>,
) -> Result<CoverageOutcome, BudgetExceeded> {
    let start = Instant::now();
    if let Some(token) = budget {
        token.check()?;
    }
    let chunks = row_chunks(transformations.len(), pairs.len(), threads);
    let scan = |rows: Range<usize>| {
        coverage_scan(pool, transformations, pairs, rows, use_cache, budget)
    };
    // The calling thread scans the first chunk; one chunk spawns nothing.
    let scans: Vec<CoverageOutcome> = std::thread::scope(|scope| {
        let workers: Vec<_> =
            chunks[1..].iter().map(|rows| scope.spawn(move || scan(rows.clone()))).collect();
        let mut scans = vec![scan(chunks[0].clone())];
        scans.extend(workers.into_iter().map(|worker| {
            worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        scans
    });
    // Row chunks are disjoint and ascending, so each candidate's per-chunk
    // sorted lists concatenate, in chunk order, into the sorted global list.
    let mut scans = scans.into_iter();
    let mut outcome = scans.next().expect("row_chunks yields at least one chunk");
    for scan in scans {
        for (rows, more) in outcome.covered_rows.iter_mut().zip(scan.covered_rows) {
            rows.extend(more);
        }
        outcome.trials += scan.trials;
        outcome.cache_hits += scan.cache_hits;
        outcome.potential_trials += scan.potential_trials;
        outcome.unit_evaluations += scan.unit_evaluations;
    }
    // A tripped budget discards the (truncated) partial scan: budgeted
    // aborts are all-or-nothing.
    if let Some(token) = budget {
        token.check()?;
    }
    outcome.apply_time = start.elapsed();
    Ok(outcome)
}

/// Splits `0..rows` into the contiguous, ascending row chunks the workers
/// scan: `min(threads, rows)` non-empty chunks balanced to within one row,
/// or the single chunk `0..rows` for shapes below [`MIN_PARALLEL_SIDE`] on
/// both sides (and for `rows <= 1` or `threads <= 1`).
fn row_chunks(transformations: usize, rows: usize, threads: usize) -> Vec<Range<usize>> {
    let small = transformations < MIN_PARALLEL_SIDE && rows < MIN_PARALLEL_SIDE;
    let workers = if small { 1 } else { threads.clamp(1, rows.max(1)) };
    (0..workers).map(|w| w * rows / workers..(w + 1) * rows / workers).collect()
}

/// Rows per tile: one bit of a `u64` row mask each.
const TILE: usize = 64;

/// A unit with no span block in the current tile.
const NO_BLOCK: usize = usize::MAX;

/// The scan loop of the interned engine: covers `transformations` × `rows`
/// tile by tile, with each tile's cache, evaluation masks and output spans
/// of its own (see the module docs).
///
/// The cache keeps the *incremental* semantics of the naive loop, so
/// trial/hit accounting over any row range is bit-identical to the naive
/// transformation-major reference over the same rows. A tripped `budget`
/// stops the scan at the next tile boundary, leaving a truncated outcome
/// for the caller to discard.
fn coverage_scan(
    pool: &UnitPool,
    transformations: &[IdTransformation],
    pairs: &PairSet,
    rows: Range<usize>,
    use_cache: bool,
    budget: Option<&BudgetToken>,
) -> CoverageOutcome {
    // Empty candidates never touch the heap.
    let mut covered_rows: Vec<SparseRows> = vec![Vec::new(); transformations.len()];
    let potential_trials = transformations.len() as u64 * rows.len() as u64;
    let (mut trials, mut cache_hits, mut unit_evaluations) = (0u64, 0u64, 0u64);
    let mut bad = vec![0u64; pool.len()];
    let mut evaluated = vec![0u64; pool.len()];
    // A covering unit's output on a tile row, as `(offset, len)` in the
    // row's target, at `spans[block[unit] + lane]`. A unit gets its block
    // of `TILE` spans when it first covers a row of the tile: on
    // `RepositoryConfig::new(12, 80).generate(7000)` about 40 % of units
    // do, so a dense `pool × TILE` table would be mostly empty. `PairSet::from_pairs` bounds targets
    // to `u32::MAX` bytes, so offsets and lengths fit a `u32`.
    let mut block = vec![NO_BLOCK; pool.len()];
    let mut spans: Vec<(u32, u32)> = Vec::new();

    for first in rows.clone().step_by(TILE) {
        if budget.is_some_and(|token| token.check().is_err()) {
            break;
        }
        let tile_rows = TILE.min(rows.end - first);
        let live = u64::MAX >> (TILE - tile_rows);
        bad.fill(0);
        evaluated.fill(0);
        block.fill(NO_BLOCK);
        spans.clear();
        for (t_idx, t) in transformations.iter().enumerate() {
            let units = t.unit_ids();
            let hits = if use_cache {
                units.iter().fold(0, |hits, unit| hits | bad[unit.index()])
            } else {
                0
            };
            cache_hits += u64::from(hits.count_ones());
            let mut lanes = live & !hits;
            trials += u64::from(lanes.count_ones());
            'lanes: while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let bit = 1u64 << lane;
                let row = first + lane;
                let target = pairs.target(row);
                let bytes = target.as_bytes();
                let (mut len, mut matches) = (0usize, true);
                for &unit in units {
                    let i = unit.index();
                    if evaluated[i] & bit == 0 {
                        evaluated[i] |= bit;
                        unit_evaluations += 1;
                        let output = pool.get(unit).output_on(pairs.source(row));
                        let Some((at, n)) =
                            output.and_then(|out| Some((target.find(out)?, out.len())))
                        else {
                            bad[i] |= bit;
                            continue 'lanes;
                        };
                        if block[i] == NO_BLOCK {
                            block[i] = spans.len();
                            spans.resize(spans.len() + TILE, (0, 0));
                        }
                        spans[block[i] + lane] = (to_u32(at), to_u32(n));
                    }
                    if bad[i] & bit != 0 {
                        continue 'lanes;
                    }
                    let (at, n) = spans[block[i] + lane];
                    let (at, n) = (at as usize, n as usize);
                    if len + n > bytes.len() {
                        continue 'lanes;
                    }
                    matches = matches && (at == len || bytes[at..at + n] == bytes[len..len + n]);
                    len += n;
                }
                if matches && len == bytes.len() {
                    // Invariant is local (audited): `row` indexes the
                    // `PairSet`, admitted through `checked_row_count` in
                    // `PairSet::from_pairs` — the cast cannot truncate.
                    covered_rows[t_idx].push(row as u32);
                }
            }
        }
    }

    CoverageOutcome {
        covered_rows,
        trials,
        cache_hits,
        potential_trials,
        unit_evaluations,
        apply_time: Duration::ZERO,
    }
}

/// A byte offset or length within a target, which `PairSet::from_pairs`
/// bounds to `u32::MAX` bytes.
fn to_u32(bytes: usize) -> u32 {
    u32::try_from(bytes).expect("PairSet::from_pairs bounds targets to u32::MAX bytes")
}

pub mod reference {
    //! The naive transformation-major coverage loop the interned engine
    //! replaced: hash-set unit cache, no output memoization, and **dense**
    //! per-candidate `RowBitmap` collection (converted to the sparse output
    //! shape only at the edge). Retained as the differential-testing oracle
    //! for both the memoized evaluation *and* the sparse collection (see
    //! `tests/proptest_pipeline.rs` and the coverage tests below).

    use super::CoverageOutcome;
    use crate::bitmap::RowBitmap;
    use crate::pair::PairSet;
    use std::time::Instant;
    use tjoin_text::FxHashSet;
    use tjoin_units::{Transformation, Unit};

    /// Computes coverage with the pre-interning algorithm, single-threaded.
    /// `covered_rows`, `trials`, `cache_hits` and `potential_trials` match
    /// [`super::compute_coverage`] at any thread count; `unit_evaluations`
    /// counts every `output_on` call (one per unit application).
    // The loop shape is kept verbatim from the pre-interning implementation
    // (it IS the oracle); silence the style lint about indexed row loops.
    #[allow(clippy::needless_range_loop)]
    pub fn compute_coverage_reference(
        transformations: &[Transformation],
        pairs: &PairSet,
        use_cache: bool,
    ) -> CoverageOutcome {
        let start = Instant::now();
        let rows = pairs.len();
        let mut caches: Vec<FxHashSet<Unit>> = vec![FxHashSet::default(); rows];
        let mut covered_rows = Vec::with_capacity(transformations.len());
        let mut trials: u64 = 0;
        let mut cache_hits: u64 = 0;
        let mut unit_evaluations: u64 = 0;
        let mut buffer = String::new();

        for t in transformations {
            let mut covered = RowBitmap::new(rows);
            'rows: for row in 0..rows {
                if use_cache {
                    for unit in t.units() {
                        if caches[row].contains(unit) {
                            cache_hits += 1;
                            continue 'rows;
                        }
                    }
                }
                trials += 1;
                let source = pairs.source(row);
                let target = pairs.target(row);
                buffer.clear();
                let mut failed = false;
                for unit in t.units() {
                    unit_evaluations += 1;
                    match unit.output_on(source) {
                        Some(out) => {
                            if !out.is_empty() && !target.contains(out) {
                                // This unit can never appear in a
                                // transformation covering this row.
                                if use_cache {
                                    caches[row].insert(unit.clone());
                                }
                                failed = true;
                                break;
                            }
                            buffer.push_str(out);
                            if buffer.len() > target.len() {
                                failed = true;
                                break;
                            }
                        }
                        None => {
                            if use_cache {
                                caches[row].insert(unit.clone());
                            }
                            failed = true;
                            break;
                        }
                    }
                }
                if !failed && buffer == target {
                    covered.insert(row);
                }
            }
            covered_rows.push(covered.to_vec());
        }

        CoverageOutcome {
            covered_rows,
            trials,
            cache_hits,
            potential_trials: transformations.len() as u64 * rows as u64,
            unit_evaluations,
            apply_time: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::compute_coverage_reference;
    use super::*;
    use tjoin_text::{BudgetExceeded, NormalizeOptions, RunBudget};
    use tjoin_units::Unit;

    fn pairs(rows: &[(&str, &str)]) -> PairSet {
        PairSet::from_strings(rows, &NormalizeOptions::none())
    }

    fn initial_last() -> Transformation {
        Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ])
    }

    /// Asserts the interned engine and the naive reference agree on every
    /// observable for the given inputs, and returns the interned outcome.
    fn coverage_checked(
        transformations: &[Transformation],
        set: &PairSet,
        use_cache: bool,
        threads: usize,
    ) -> CoverageOutcome {
        let interned = compute_coverage(transformations, set, use_cache, threads);
        let naive = compute_coverage_reference(transformations, set, use_cache);
        assert_eq!(interned.covered_rows, naive.covered_rows);
        assert_eq!(interned.trials, naive.trials);
        assert_eq!(interned.cache_hits, naive.cache_hits);
        assert_eq!(interned.potential_trials, naive.potential_trials);
        interned
    }

    #[test]
    fn coverage_counts_matching_rows() {
        let set = pairs(&[
            ("bowling, michael", "m bowling"),
            ("gosgnach, simon", "s gosgnach"),
            ("rafiei, davood", "davood rafiei"), // different format
        ]);
        let out = coverage_checked(&[initial_last()], &set, true, 1);
        assert_eq!(out.covered_rows, vec![vec![0, 1]]);
        assert_eq!(out.potential_trials, 3);
        assert!(out.trials <= 3);
    }

    #[test]
    fn cache_reduces_trials_for_repeated_units() {
        // Two transformations sharing a failing unit: the second one should be
        // skipped via the cache on the rows where the first already failed.
        let bad_unit = Unit::literal("zzz"); // "zzz" never occurs in targets
        let t1 = Transformation::new(vec![bad_unit.clone(), Unit::substr(0, 1)]);
        let t2 = Transformation::new(vec![bad_unit, Unit::substr(0, 2)]);
        let set = pairs(&[("abcdef", "abc"), ("ghijkl", "ghi")]);
        let with_cache = coverage_checked(&[t1.clone(), t2.clone()], &set, true, 1);
        let without_cache = coverage_checked(&[t1, t2], &set, false, 1);
        assert_eq!(with_cache.covered_rows, without_cache.covered_rows);
        assert!(with_cache.cache_hits >= 2, "hits: {}", with_cache.cache_hits);
        assert!(with_cache.trials < without_cache.trials);
        assert_eq!(without_cache.cache_hits, 0);
    }

    #[test]
    fn a_mismatching_trial_still_caches_a_later_bad_unit() {
        // The first candidate's "b" occurs in the target but not at offset
        // 0, so its output stops matching at once; the walk must still go
        // on to "zzz", find it non-covering and cache it, which makes the
        // second candidate a cache hit. A walk that stopped at the first
        // mismatch would try the second candidate instead.
        let zzz = Unit::literal("zzz");
        let ts = [
            Transformation::new(vec![Unit::substr(1, 2), zzz.clone()]),
            Transformation::new(vec![Unit::substr(0, 3), zzz]),
            Transformation::new(vec![Unit::substr(0, 3)]),
        ];
        let set = pairs(&[("abc", "abc")]);
        let out = coverage_checked(&ts, &set, true, 1);
        assert_eq!((out.trials, out.cache_hits), (2, 1));
        assert_eq!(out.covered_rows, vec![vec![], vec![], vec![0]]);
    }

    #[test]
    fn length_abandoning_does_not_change_results() {
        let t = Transformation::new(vec![Unit::substr(0, 5), Unit::substr(0, 5)]);
        let set = pairs(&[("abcdef", "abcde")]);
        let out = coverage_checked(&[t], &set, true, 1);
        assert_eq!(out.covered_rows, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn empty_transformation_list() {
        let set = pairs(&[("a", "b")]);
        let out = coverage_checked(&[], &set, true, 1);
        assert!(out.covered_rows.is_empty());
        assert_eq!(out.potential_trials, 0);
        assert_eq!(out.cache_hits, 0);
    }

    #[test]
    fn covers_exact_equality_only() {
        // Output must equal the target exactly, not merely be a prefix.
        let t = Transformation::new(vec![Unit::substr(0, 3)]);
        let set = pairs(&[("abcdef", "abcx"), ("abcdef", "abc")]);
        let out = coverage_checked(&[t], &set, true, 1);
        assert_eq!(out.covered_rows, vec![vec![1]]);
    }

    #[test]
    fn memoization_bounds_unit_evaluations() {
        // 60 transformations over a pool of 4 distinct units, 3 rows: the
        // interned engine may evaluate each (row, unit) pair at most once —
        // ≤ 12 evaluations — while the naive loop pays per application.
        let units = [
            Unit::substr(0, 1),
            Unit::substr(0, 2),
            Unit::split(',', 0),
            Unit::literal("x"),
        ];
        let mut ts = Vec::new();
        for a in 0..4usize {
            for b in 0..4usize {
                for c in 0..4usize {
                    if ts.len() < 60 {
                        ts.push(Transformation::new(vec![
                            units[a].clone(),
                            units[b].clone(),
                            units[c].clone(),
                        ]));
                    }
                }
            }
        }
        let set = pairs(&[("ab,cd", "ab"), ("xy,zw", "xyx"), ("qq,rr", "q")]);
        // Without the cache every transformation is tried on every row, so
        // the memo bound is exercised hardest.
        let interned = compute_coverage(&ts, &set, false, 1);
        let naive = compute_coverage_reference(&ts, &set, false);
        assert_eq!(interned.covered_rows, naive.covered_rows);
        assert!(
            interned.unit_evaluations <= (3 * 4) as u64,
            "memoized engine evaluated {} (row, unit) pairs, expected <= 12",
            interned.unit_evaluations
        );
        assert!(
            naive.unit_evaluations > interned.unit_evaluations * 4,
            "naive loop should re-evaluate units per application ({} vs {})",
            naive.unit_evaluations,
            interned.unit_evaluations
        );
    }

    fn intern(ts: &[Transformation]) -> (UnitPool, Vec<IdTransformation>) {
        let mut pool = UnitPool::new();
        let interned = ts
            .iter()
            .map(|t| {
                IdTransformation::new(t.units().iter().map(|u| pool.intern(u.clone())).collect())
            })
            .collect();
        (pool, interned)
    }

    fn owned(rows: &[(&str, &str)]) -> Vec<(String, String)> {
        rows.iter().map(|&(s, t)| (s.to_owned(), t.to_owned())).collect()
    }

    /// One edge shape of the row chunking or tiling. With a `deadline`, the budget
    /// must trip mid-scan and the run return `Err`.
    struct EdgeCase {
        name: &'static str,
        transformations: Vec<Transformation>,
        rows: Vec<(String, String)>,
        deadline: Option<Duration>,
    }

    /// Every edge shape of the row chunking and the 64-row tiles, at
    /// threads {1, 2, 3, 4, 7} and cache on/off: the whole outcome but `apply_time` equals the serial
    /// engine's, the serial engine equals the naive reference (and the
    /// owned-transformation wrapper), and a budget that trips mid-scan
    /// returns `Err` — never a partial outcome.
    #[test]
    fn edge_shapes_match_serial_at_every_thread_count() {
        // 300 candidates: enough to chunk rows however few rows there are.
        let many: Vec<Transformation> = (0..300usize)
            .map(|i| {
                Transformation::new(vec![Unit::substr(i % 3, i % 3 + 1), Unit::literal(" x")])
            })
            .collect();
        // 256 candidates alternating between covering the even rows ("r")
        // and the odd rows ("q") of `seam_rows`, so sparse lists cross every
        // chunk boundary.
        let alternating: Vec<Transformation> = (0..256)
            .map(|i| {
                Transformation::new(vec![if i % 2 == 0 {
                    Unit::substr(0, 1)
                } else {
                    Unit::literal("q")
                }])
            })
            .collect();
        let seam_rows = |rows: usize| -> Vec<(String, String)> {
            (0..rows)
                .map(|i| (format!("r{i:03}"), if i % 2 == 0 { "r" } else { "q" }.to_owned()))
                .collect()
        };
        // Every sequence of one to three units over a pool whose verdicts
        // vary by row, so the cache fills differently on each row of a
        // tile: 258 candidates, enough to chunk rows.
        let unit_pool = [
            Unit::substr(0, 1),
            Unit::substr(1, 2),
            Unit::literal("q"),
            Unit::literal("r"),
            Unit::literal("0"),
            Unit::split('x', 0),
        ];
        let mut sequences: Vec<Vec<Unit>> = vec![Vec::new()];
        let mut varied = Vec::new();
        for _ in 0..3 {
            sequences = sequences
                .iter()
                .flat_map(|prefix| {
                    unit_pool.iter().map(|unit| [prefix.clone(), vec![unit.clone()]].concat())
                })
                .collect();
            varied.extend(sequences.iter().cloned().map(Transformation::new));
        }
        let tile_rows = |rows: usize| -> Vec<(String, String)> {
            let targets = ["r", "q", "r0", "rq"];
            (0..rows).map(|i| (format!("r{i:03}"), targets[i % 4].to_owned())).collect()
        };
        let names = [("bowling, michael", "m bowling"), ("rafiei, davood", "rafiei")];
        let mixed = vec![initial_last(), Transformation::new(vec![Unit::split(',', 0)])];
        let case = |name, transformations, rows| EdgeCase {
            name,
            transformations,
            rows,
            deadline: None,
        };
        let cases = [
            case("0 rows", mixed.clone(), Vec::new()),
            case("0 candidates", Vec::new(), owned(&names)),
            case("1 row", many.clone(), owned(&names[..1])),
            case("few rows", mixed, owned(&names)),
            case(
                "rows < threads",
                many.clone(),
                owned(&[("abcdef", "a x"), ("bcdefg", "c x"), ("zzzzzz", "q x")]),
            ),
            // At 2 threads the chunk boundary lands on row 63, 64 and 65:
            // on and around a `RowBitmap` word seam.
            case("seam 63", alternating.clone(), seam_rows(126)),
            case("seam 64", alternating.clone(), seam_rows(128)),
            case("seam 65", alternating, seam_rows(130)),
            // A partial tile, the full 64-row mask, one row past it, and
            // two full tiles plus one row; at 2 and 3 threads the tiles
            // straddle the chunk boundaries.
            case("tile 63", varied.clone(), tile_rows(63)),
            case("tile 64", varied.clone(), tile_rows(64)),
            case("tile 65", varied.clone(), tile_rows(65)),
            case("tile 129", varied, tile_rows(129)),
            EdgeCase {
                name: "deadline trips mid-scan",
                transformations: many,
                rows: seam_rows(20_000),
                deadline: Some(Duration::from_millis(1)),
            },
        ];

        for case in &cases {
            let set = PairSet::from_strings(&case.rows, &NormalizeOptions::none());
            let (pool, interned) = intern(&case.transformations);
            let run = |use_cache: bool, threads: usize, budget: Option<&BudgetToken>| {
                compute_coverage_planned_budgeted(
                    &pool,
                    &interned,
                    &set,
                    use_cache,
                    threads,
                    CoverageAxis::Auto,
                    budget,
                )
                .map(|outcome| CoverageOutcome { apply_time: Duration::ZERO, ..outcome })
            };
            let name = case.name;
            if let Some(deadline) = case.deadline {
                for threads in [1usize, 2, 3, 4, 7] {
                    let token = RunBudget::default().with_deadline(deadline).token();
                    assert_eq!(
                        run(true, threads, Some(&token)),
                        Err(BudgetExceeded::Deadline),
                        "{name}: threads={threads}"
                    );
                }
                continue;
            }
            if name.starts_with("seam") {
                let boundary = set.len() / 2;
                assert_eq!(
                    row_chunks(interned.len(), set.len(), 2),
                    vec![0..boundary, boundary..set.len()],
                    "{name}"
                );
            }
            for use_cache in [true, false] {
                let serial = run(use_cache, 1, None).expect("unbudgeted");
                let reference =
                    compute_coverage_reference(&case.transformations, &set, use_cache);
                assert_eq!(serial.covered_rows, reference.covered_rows, "{name}");
                assert_eq!(serial.trials, reference.trials, "{name}");
                assert_eq!(serial.cache_hits, reference.cache_hits, "{name}");
                assert_eq!(serial.potential_trials, reference.potential_trials, "{name}");
                let wrapped = compute_coverage(&case.transformations, &set, use_cache, 1);
                assert_eq!(CoverageOutcome { apply_time: Duration::ZERO, ..wrapped }, serial);
                for threads in [2usize, 3, 4, 7] {
                    let out = run(use_cache, threads, None).expect("unbudgeted");
                    assert_eq!(out, serial, "{name}: threads={threads} cache={use_cache}");
                }
            }
        }
    }

    #[test]
    fn row_chunks_tile_the_rows() {
        // Small shapes stay in one chunk; otherwise min(threads, rows)
        // non-empty ascending chunks, balanced to within one row.
        assert_eq!(row_chunks(255, 255, 8), vec![0..255]);
        assert_eq!(row_chunks(0, 0, 8), vec![0..0]);
        assert_eq!(row_chunks(1000, 1000, 0), vec![0..1000]);
        for (transformations, rows) in [(256usize, 1usize), (256, 3), (1, 256), (700, 1001)] {
            for threads in [1usize, 2, 3, 4, 7, 64] {
                let chunks = row_chunks(transformations, rows, threads);
                assert_eq!(chunks.len(), threads.min(rows));
                assert_eq!(chunks.first().map(|c| c.start), Some(0));
                assert_eq!(chunks.last().map(|c| c.end), Some(rows));
                for pair in chunks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                let (min, max) = chunks.iter().fold((usize::MAX, 0), |(lo, hi), c| {
                    (lo.min(c.len()), hi.max(c.len()))
                });
                assert!(min >= 1 && max - min <= 1, "{chunks:?}");
            }
        }
    }

    mod sparse_differential {
        //! Differential property tests: the interned engine's sparse
        //! collection vs the reference's dense `RowBitmap` path, across
        //! thread counts and cache toggles.

        use super::*;
        use proptest::prelude::*;

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

        /// Transformations drawn from a small shared unit pool, so the same
        /// units recur across candidates (the shape both the cache and the
        /// memoization exploit).
        fn pooled_transformations() -> impl Strategy<Value = Vec<Transformation>> {
            (prop::collection::vec(any_unit(), 2..6), 0usize..300).prop_map(
                |(pool, picks)| {
                    let n = pool.len();
                    (0..(picks % 30) + 1)
                        .map(|t| {
                            Transformation::new(
                                (0..t % 3 + 1)
                                    .map(|j| pool[(t * 5 + j * 2 + picks) % n].clone())
                                    .collect(),
                            )
                        })
                        .collect()
                },
            )
        }

        fn random_rows() -> impl Strategy<Value = Vec<(String, String)>> {
            prop::collection::vec(("[a-z, -]{0,12}", "[a-z, -]{0,8}"), 1..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The sparse-collection engine reports exactly the same sorted
            /// row lists and pruning statistics as the dense reference path,
            /// at 1 and 4 threads, cache on and off.
            #[test]
            fn sparse_collection_matches_dense_reference(
                ts in pooled_transformations(),
                rows in random_rows(),
                use_cache in prop_oneof![Just(true), Just(false)],
            ) {
                let set = PairSet::from_strings(&rows, &NormalizeOptions::none());
                let dense = compute_coverage_reference(&ts, &set, use_cache);
                for threads in [1usize, 4] {
                    let sparse = compute_coverage(&ts, &set, use_cache, threads);
                    prop_assert_eq!(
                        &sparse.covered_rows, &dense.covered_rows,
                        "covered rows diverged (cache={}, threads={})", use_cache, threads
                    );
                    prop_assert_eq!(sparse.trials, dense.trials);
                    prop_assert_eq!(sparse.cache_hits, dense.cache_hits);
                    prop_assert_eq!(sparse.potential_trials, dense.potential_trials);
                    // Every sparse list must be strictly sorted — the
                    // contract `RowBitmap::from_sorted_rows` densifies under.
                    for list in &sparse.covered_rows {
                        prop_assert!(list.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }
        }
    }
}
