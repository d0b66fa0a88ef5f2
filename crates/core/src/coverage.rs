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
//! The production path ([`compute_coverage_planned_budgeted`]) exploits the
//! [`UnitPool`] the generation phase already built:
//!
//! * **Per-row output memoization.** For each row, every unit's
//!   `output_on(source)` result is computed at most once and stored in a
//!   dense table indexed by [`UnitId`] — no matter how many transformations
//!   contain the unit. The memo also records the "is the output a substring
//!   of the target" verdict, so the repeated `target.contains(..)` scans of
//!   the naive loop collapse into one per `(row, unit)`.
//! * **Bitset cache.** The per-row non-covering-unit cache is a dense
//!   epoch-stamped array indexed by `UnitId` (O(1) lookup, zero hashing,
//!   zero cloning) instead of a `HashSet<Unit>` of cloned units. Its
//!   entries mirror the memo's `Bad` verdicts; it exists separately for
//!   pre-scan cache locality (see `BadUnitSet`).
//! * **Sparse coverage collection.** Covered rows are accumulated as sorted
//!   per-candidate row lists (`Vec<u32>`), not as a dense
//!   [`crate::bitmap::RowBitmap`] per candidate. A dense pre-allocation
//!   costs `candidates × rows/8` bytes even though the overwhelming
//!   majority of candidates cover nothing (at 10^6 candidates × 10^4 rows
//!   that is ~1.25 GB); a sparse list costs one `Vec` header (24 bytes) for
//!   an empty candidate and 4 bytes per covered row otherwise. Row-major
//!   iteration appends rows in increasing order, so each list is sorted by
//!   construction. Densification into `RowBitmap`s — the representation
//!   the selection phase's set algebra wants — happens in the engine, only
//!   for candidates surviving the non-empty/support filter (see
//!   [`crate::bitmap::RowBitmap::from_sorted_rows`]).
//!
//! The iteration order is row-major (rows outer, transformations inner) so
//! the memo table is a single pool-sized vector reset per row via epoch
//! stamps. Because the per-row cache only ever accrues entries from earlier
//! *trials on the same row*, and those happen in transformation order in
//! both orders, the reported `trials`, `cache_hits`, and covered rows are
//! bit-identical to the naive transformation-major loop retained in
//! [`reference`] — which still collects densely, making it the oracle for
//! the sparse collection as well.
//!
//! # Parallel execution
//!
//! With `threads > 1` the rows are split into `min(threads, rows)`
//! contiguous chunks, and each worker runs the same scan over its chunk
//! with its own lazy per-row memo and cache; one chunk is the serial
//! engine. Shapes with fewer than 256 candidates and fewer than 256 rows
//! always scan in one chunk, because thread start-up costs more than a
//! second core buys there. The per-candidate row lists of consecutive
//! chunks concatenate, in chunk order, into the sorted global lists. Both
//! the memo and the cache live for one row only, and chunks share no rows,
//! so every `(row, unit)` pair is evaluated at most once overall and every
//! counter — `covered_rows`, `trials`, `cache_hits`, `potential_trials` and
//! `unit_evaluations` — is identical at every thread count, while each
//! worker holds one pool-sized table.

use crate::pair::PairSet;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::{Duration, Instant};
use tjoin_text::{BudgetExceeded, BudgetToken};
use tjoin_units::{CharStr, IdTransformation, Transformation, UnitId, UnitPool};

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

impl CoverageOutcome {
    /// Cache hit ratio over all potential trials (the paper's "Cache hit
    /// ratio" column in Table 4).
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.potential_trials == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.potential_trials as f64
        }
    }
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
/// Every worker checks the token at each row boundary, and the whole
/// computation returns `Err` — with no partial outcome — once it trips
/// (only the wall-clock deadline can trip mid-scan; row/byte caps are
/// charged at pipeline admission). `axis` has no effect (see
/// [`CoverageAxis`]).
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
    // aborts are all-or-nothing, like `chunk_map_budgeted`.
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

/// The memoized outcome of one `(row, unit)` evaluation.
#[derive(Debug, Clone, Default)]
enum MemoEntry {
    /// Not evaluated on this row yet.
    #[default]
    Unknown,
    /// The unit does not apply, or its (non-empty) output is not a substring
    /// of the row's target — exactly the condition under which the naive
    /// loop inserts the unit into the row's non-covering cache.
    Bad,
    /// The unit's output, which does occur in the row's target (or is
    /// empty).
    Good(Box<str>),
}

/// Dense per-row memo over the unit pool, reset per row via epoch stamps so
/// the allocation is reused across rows.
struct RowMemo {
    entries: Vec<MemoEntry>,
    epochs: Vec<u32>,
    current_epoch: u32,
}

impl RowMemo {
    fn new(pool_len: usize) -> Self {
        Self {
            entries: vec![MemoEntry::default(); pool_len],
            epochs: vec![0; pool_len],
            current_epoch: 0,
        }
    }

    /// Starts a new row: logically clears all entries in O(1).
    fn next_row(&mut self) {
        self.current_epoch += 1;
    }

    /// The unit's output on the current row, or `None` when the unit is
    /// non-covering there (it does not apply to `source`, or its non-empty
    /// output is not a substring of `target`). Evaluates the unit at most
    /// once per row, counting each evaluation in `evaluations`.
    #[inline]
    fn output(
        &mut self,
        pool: &UnitPool,
        id: UnitId,
        source: &CharStr,
        target: &str,
        evaluations: &mut u64,
    ) -> Option<&str> {
        let i = id.index();
        if self.epochs[i] != self.current_epoch {
            *evaluations += 1;
            self.entries[i] = match pool.get(id).output_on(source) {
                Some(out) if out.is_empty() || target.contains(out.as_ref()) => {
                    MemoEntry::Good(out.into_owned().into_boxed_str())
                }
                _ => MemoEntry::Bad,
            };
            self.epochs[i] = self.current_epoch;
        }
        match &self.entries[i] {
            MemoEntry::Good(out) => Some(out),
            MemoEntry::Bad => None,
            MemoEntry::Unknown => unreachable!("memo entry was just filled"),
        }
    }
}

/// Per-row set of units known not to cover the row (the paper's cache),
/// epoch-stamped like [`RowMemo`].
///
/// Logically this duplicates the memo's `Bad` entries — a unit is inserted
/// here exactly when its memo entry is set to [`MemoEntry::Bad`] — but it is
/// kept as a separate dense `u32` epoch array deliberately: the cache-skip
/// pre-scan touches it once per unit of every candidate on every row (the
/// hottest loop in coverage), and scanning a 4-byte-per-unit array is ~25 %
/// faster end-to-end than reading the 24-byte `MemoEntry` slots (measured
/// on the `coverage_interned` bench: 6.7 ms vs 8.6 ms median).
struct BadUnitSet {
    epochs: Vec<u32>,
    current_epoch: u32,
}

impl BadUnitSet {
    fn new(pool_len: usize) -> Self {
        Self {
            epochs: vec![0; pool_len],
            current_epoch: 0,
        }
    }

    fn next_row(&mut self) {
        self.current_epoch += 1;
    }

    #[inline]
    fn contains(&self, id: UnitId) -> bool {
        self.epochs[id.index()] == self.current_epoch
    }

    #[inline]
    fn insert(&mut self, id: UnitId) {
        self.epochs[id.index()] = self.current_epoch;
    }
}

/// The scan loop of the interned engine: covers `transformations` × `rows`
/// with a lazy per-row memo and bad-unit cache of its own.
///
/// The per-row bad-unit cache keeps the *incremental* semantics of the
/// naive loop — a unit is inserted only when a trial on that row reaches
/// it — so trial/hit accounting over any row range is bit-identical to the
/// naive transformation-major reference over the same rows (see the module
/// docs for why row-major and transformation-major orders agree). A tripped
/// `budget` stops the scan at the next row boundary, leaving a truncated
/// outcome for the caller to discard.
fn coverage_scan(
    pool: &UnitPool,
    transformations: &[IdTransformation],
    pairs: &PairSet,
    rows: Range<usize>,
    use_cache: bool,
    budget: Option<&BudgetToken>,
) -> CoverageOutcome {
    // Sparse collection: one (initially unallocated) sorted row list per
    // candidate — empty candidates never touch the heap. Rows arrive in
    // increasing order, so each list stays sorted by construction.
    let mut covered_rows: Vec<SparseRows> = vec![Vec::new(); transformations.len()];
    let potential_trials = transformations.len() as u64 * rows.len() as u64;
    let mut trials: u64 = 0;
    let mut cache_hits: u64 = 0;
    let mut unit_evaluations: u64 = 0;
    let mut memo = RowMemo::new(pool.len());
    let mut bad = BadUnitSet::new(pool.len());
    let mut buffer = String::new();

    for row in rows {
        if let Some(token) = budget {
            if token.check().is_err() {
                break;
            }
        }
        memo.next_row();
        bad.next_row();
        let source = pairs.source(row);
        let target = pairs.target(row);

        'transformations: for (t_idx, t) in transformations.iter().enumerate() {
            if use_cache {
                for &unit in t.unit_ids() {
                    if bad.contains(unit) {
                        cache_hits += 1;
                        continue 'transformations;
                    }
                }
            }
            trials += 1;
            buffer.clear();
            let mut failed = false;
            for &unit in t.unit_ids() {
                match memo.output(pool, unit, source, target, &mut unit_evaluations) {
                    Some(out) => {
                        buffer.push_str(out);
                        if buffer.len() > target.len() {
                            failed = true;
                            break;
                        }
                    }
                    None => {
                        // This unit can never appear in a transformation
                        // covering this row.
                        if use_cache {
                            bad.insert(unit);
                        }
                        failed = true;
                        break;
                    }
                }
            }
            if !failed && buffer == target {
                // Invariant is local (audited): `row` indexes the
                // `PairSet`, admitted through `checked_row_count` in
                // `PairSet::from_pairs` — the cast cannot truncate.
                covered_rows[t_idx].push(row as u32);
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

pub mod reference {
    //! The naive transformation-major coverage loop the interned engine
    //! replaced: hash-set unit cache, no output memoization, and **dense**
    //! per-candidate `RowBitmap` collection (converted to the sparse output
    //! shape only at the edge). Retained as the differential-testing oracle
    //! for both the memoized evaluation *and* the sparse collection (see
    //! `tests/proptest_pipeline.rs` and the coverage tests below) and as the
    //! baseline leg of the `coverage_interned` benchmark.

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
                            if !out.is_empty() && !target.contains(out.as_ref()) {
                                // This unit can never appear in a
                                // transformation covering this row.
                                if use_cache {
                                    caches[row].insert(unit.clone());
                                }
                                failed = true;
                                break;
                            }
                            buffer.push_str(&out);
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
        assert!(with_cache.cache_hit_ratio() > 0.0);
        assert_eq!(without_cache.cache_hit_ratio(), 0.0);
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
        assert_eq!(out.cache_hit_ratio(), 0.0);
    }

    #[test]
    fn covers_exact_equality_only() {
        // Output must equal the target exactly, not merely be a prefix.
        let t = Transformation::single(Unit::substr(0, 3));
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

    /// One edge shape of the row chunking. With a `deadline`, the budget
    /// must trip mid-scan and the run return `Err`.
    struct EdgeCase {
        name: &'static str,
        transformations: Vec<Transformation>,
        rows: Vec<(String, String)>,
        deadline: Option<Duration>,
    }

    /// Every edge shape of the row chunking, at threads {1, 2, 3, 4, 7} and
    /// cache on/off: the whole outcome but `apply_time` equals the serial
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
                Transformation::single(if i % 2 == 0 {
                    Unit::substr(0, 1)
                } else {
                    Unit::literal("q")
                })
            })
            .collect();
        let seam_rows = |rows: usize| -> Vec<(String, String)> {
            (0..rows)
                .map(|i| (format!("r{i:03}"), if i % 2 == 0 { "r" } else { "q" }.to_owned()))
                .collect()
        };
        let names = [("bowling, michael", "m bowling"), ("rafiei, davood", "rafiei")];
        let mixed = vec![initial_last(), Transformation::single(Unit::split(',', 0))];
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
                    let token = RunBudget::unlimited().with_deadline(deadline).token();
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
