//! Solution assembly: greedy minimal set cover (Section 4.1.6 of the paper),
//! whose first pick is the single best transformation ("Top Cov.").
//!
//! Finding a minimal covering set of transformations is the classic set-cover
//! problem (NP-complete); the greedy algorithm used here repeatedly selects
//! the transformation covering the most not-yet-covered rows and has the
//! standard `H(n) ≤ ln(n) + 1` approximation guarantee the paper cites.
//!
//! Coverage is carried as [`RowBitmap`]s end to end: marginal gain is a
//! word-wise AND-NOT + popcount instead of a sorted-`Vec<u32>` difference,
//! and [`lazy_greedy_cover`] consumes its candidates by value, so selected
//! transformations are moved — not cloned — into the result set.
//!
//! # Lazy-greedy selection (CELF)
//!
//! The textbook greedy loop rescans every candidate per selection —
//! O(selected × candidates × rows/64) — which becomes the scaling wall once
//! candidate pools reach GXJoin scale (10^5–10^6). [`lazy_greedy_cover`]
//! instead keeps every candidate's *last known* marginal gain in a max-heap
//! and, per round, re-evaluates only entries popped from the top until the
//! top entry's gain is confirmed fresh for the current round.
//!
//! This is exact, not approximate, because marginal gain is **submodular**:
//! the covered set only grows between rounds, so a candidate's true gain can
//! only shrink, and every cached (stale) heap entry is an *upper bound* on
//! its candidate's true gain. When the popped top entry is fresh, its key is
//! ≥ every cached key ≥ every true key — it is the exact argmax the rescan
//! loop would have found, stale entries elsewhere in the heap
//! notwithstanding. Tie-breaking (equal gain → fewer units → lexicographic →
//! first in input order) is resolved in two regimes:
//!
//! * **Small tie groups** (the overwhelmingly common case): the heap orders
//!   by (gain, unit count, input index) and the lexicographic leg is
//!   resolved at pop time over the fresh (gain, len) tie group only, with
//!   rendered strings memoized per candidate — candidates that never tie at
//!   the top never pay a string render.
//! * **Giant tie groups** (the all-ties worst case, which previously
//!   re-popped, refreshed, and re-compared the whole surviving group every
//!   round — quadratic pops): the first time a tie group reaches
//!   `INTERN_TIE_THRESHOLD`, every remaining candidate's rendering is
//!   *interned once* into a dense rank id (sort the strings, equal strings
//!   share a rank, so rank order *is* lexicographic order) and the heap is
//!   rebuilt to order by (gain, unit count, string rank, input index). The
//!   full tie-break chain now lives in the key, gain is its only mutable
//!   component, and every later round is a single pop — the worst case is
//!   bounded by one O(n log n) intern.
//!
//! The selected set is bit-identical — same transformations, same order,
//! same covered rows — to the retained quadratic oracle in
//! [`reference::greedy_cover_reference`] in both regimes; the differential
//! suite in `tests/proptest_selection.rs` and the threshold-crossing
//! all-ties regression pin this.

use crate::bitmap::RowBitmap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tjoin_units::{CoveredTransformation, Transformation, TransformationSet};

/// A transformation together with the rows it covers (the coverage phase's
/// per-transformation output, before selection).
#[derive(Debug, Clone)]
pub struct ScoredTransformation {
    /// The transformation.
    pub transformation: Transformation,
    /// The rows it covers.
    pub covered: RowBitmap,
}

impl ScoredTransformation {
    fn coverage(&self) -> usize {
        self.covered.count_ones()
    }

    fn to_covered(&self) -> CoveredTransformation {
        CoveredTransformation {
            transformation: self.transformation.clone(),
            covered_rows: self.covered.to_vec(),
        }
    }
}

/// The minimum covered-row count implied by a `min_support` fraction over
/// `total_rows` (never below 1: zero-coverage candidates are always dropped).
///
/// Shared by [`filter_candidates`] and the engine's sparse pre-densification
/// filter so both apply the identical threshold.
pub fn min_rows_for_support(total_rows: usize, min_support: f64) -> usize {
    ((min_support * total_rows as f64).ceil() as usize).max(1)
}

/// Drops transformations whose coverage is below `min_support` (a fraction of
/// `total_rows`) or that consist solely of literals while covering a single
/// row (such candidates are target values copied verbatim and never
/// generalize).
pub fn filter_candidates(
    candidates: Vec<ScoredTransformation>,
    total_rows: usize,
    min_support: f64,
) -> Vec<ScoredTransformation> {
    let min_rows = min_rows_for_support(total_rows, min_support);
    candidates
        .into_iter()
        .filter(|c| {
            let coverage = c.coverage();
            coverage >= min_rows && !(c.transformation.is_all_literal() && coverage <= 1)
        })
        .collect()
}

/// The `k` transformations with the largest coverage, ties broken toward
/// fewer units, then lexicographically, then by input order (stable sort).
/// Off the engine path, whose best transformation is [`lazy_greedy_cover`]'s
/// first pick; kept as that identity's oracle and for perfbench's trace.
pub fn top_k(candidates: &[ScoredTransformation], k: usize) -> Vec<CoveredTransformation> {
    let mut sorted: Vec<&ScoredTransformation> = candidates.iter().collect();
    sorted.sort_by(|a, b| {
        b.coverage()
            .cmp(&a.coverage())
            .then_with(|| a.transformation.len().cmp(&b.transformation.len()))
            .then_with(|| {
                a.transformation
                    .to_string()
                    .cmp(&b.transformation.to_string())
            })
    });
    sorted
        .into_iter()
        .take(k)
        .map(ScoredTransformation::to_covered)
        .collect()
}

/// A cached marginal gain in the lazy-greedy max-heap.
///
/// Ordered by gain (descending), then unit count (ascending), then interned
/// string rank (ascending — all zero, and so inert, until a giant tie group
/// triggers the intern; afterwards ranks order exactly as the rendered
/// strings do, equal strings sharing a rank), then input index (ascending).
/// `epoch` records the selection round the gain was computed in; it
/// deliberately takes no part in the ordering — indices are unique per
/// candidate and each candidate has at most one live entry, so (gain, len,
/// rank, idx) is already a total order over the heap contents.
struct GainEntry {
    gain: usize,
    len: u32,
    rank: u32,
    idx: u32,
    epoch: u32,
}

impl Ord for GainEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .cmp(&other.gain)
            .then_with(|| other.len.cmp(&self.len))
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for GainEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GainEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for GainEntry {}

/// Tie-group size above which [`lazy_greedy_cover`] stops resolving the
/// lexicographic leg at pop time and instead interns every remaining
/// candidate's rendered string into a dense rank (one O(n log n) pass),
/// folding the whole tie-break chain into the heap key. Below it, pop-time
/// resolution with per-candidate memoized renders is cheaper (typical tie
/// groups are tiny and most candidates never render at all).
const INTERN_TIE_THRESHOLD: usize = 256;

/// Greedy minimal set cover via a lazy-greedy (CELF) priority queue:
/// repeatedly selects the transformation covering the most not-yet-covered
/// rows until no candidate adds coverage, re-evaluating only the candidates
/// that surface at the top of a cached-gain max-heap.
///
/// Ties are broken toward shorter transformations (fewer units — the paper's
/// second quality measure), then lexicographically, then toward the earlier
/// candidate in input order — exactly the rescan loop's order, so the result
/// is bit-identical to [`reference::greedy_cover_reference`] (see the module
/// docs for why stale heap entries cannot change the selection, and for the
/// two tie-resolution regimes around [`INTERN_TIE_THRESHOLD`]). The
/// returned set lists each selected transformation with *all* rows it covers
/// (not only the marginal ones), ordered by selection. Candidates are
/// consumed: the winners' transformations move into the result set.
pub fn lazy_greedy_cover(
    candidates: Vec<ScoredTransformation>,
    total_rows: usize,
) -> TransformationSet {
    lazy_greedy_cover_budgeted(candidates, total_rows, None)
        .expect("unbudgeted selection cannot abort")
}

/// [`lazy_greedy_cover`] under a cooperative
/// [`BudgetToken`](tjoin_text::BudgetToken): the token is checked at the
/// top of every heap pop (the selection loop's natural boundary) and the
/// whole selection returns `Err` — with no partial set — once it trips.
/// With `budget = None` this is exactly [`lazy_greedy_cover`], bit for bit,
/// at zero cost.
pub fn lazy_greedy_cover_budgeted(
    candidates: Vec<ScoredTransformation>,
    total_rows: usize,
    budget: Option<&tjoin_text::BudgetToken>,
) -> Result<TransformationSet, tjoin_text::BudgetExceeded> {
    // Seed the heap with every candidate's full coverage: against the empty
    // covered set the marginal gain IS the coverage, so every entry starts
    // fresh for round 0. Ranks start at zero (key order (gain, len, idx))
    // until — and unless — a giant tie group triggers the intern.
    let mut heap: BinaryHeap<GainEntry> = candidates
        .iter()
        .enumerate()
        .map(|(idx, c)| GainEntry {
            gain: c.covered.count_ones(),
            len: u32::try_from(c.transformation.len()).expect("transformation length overflow"),
            rank: 0,
            idx: u32::try_from(idx).expect("candidate count exceeds the u32 index space"),
            epoch: 0,
        })
        .collect();

    let mut slots: Vec<Option<ScoredTransformation>> =
        candidates.into_iter().map(Some).collect();
    // Lexicographic tie keys for the pop-time path, rendered lazily: only
    // candidates that reach a genuine fresh (gain, len) tie at the heap top
    // ever pay the render.
    let mut strings: Vec<Option<Box<str>>> = vec![None; slots.len()];
    fn fill(strings: &mut [Option<Box<str>>], slots: &[Option<ScoredTransformation>], idx: usize) {
        if strings[idx].is_none() {
            let t = &slots[idx].as_ref().expect("unselected candidate").transformation;
            strings[idx] = Some(t.to_string().into_boxed_str());
        }
    }

    let mut covered = RowBitmap::new(total_rows);
    let mut selected: Vec<CoveredTransformation> = Vec::new();
    let mut epoch: u32 = 0;
    let mut held: Vec<GainEntry> = Vec::new();
    let mut interned = false;

    while let Some(entry) = heap.pop() {
        if let Some(token) = budget {
            token.check()?;
        }
        // Cached gains are upper bounds (submodularity), so a zero at the
        // top means every remaining candidate's true gain is zero.
        if entry.gain == 0 {
            break;
        }
        if entry.epoch != epoch {
            // Stale: refresh against the current covered set and reinsert.
            let gain = slots[entry.idx as usize]
                .as_ref()
                .expect("unselected candidate present")
                .covered
                .and_not_count(&covered);
            heap.push(GainEntry { gain, epoch, ..entry });
            continue;
        }
        // Fresh top: the exact argmax under the heap order. Once interned,
        // that order is the full tie-break chain and we select outright.
        let mut best = entry;
        if !interned {
            // Pre-intern, the order is only (gain, len, idx): entries still
            // tied on (gain, len) were ordered behind `best` by input index
            // alone, but lexicographic order ranks before index in the
            // tie-break chain — pop the tie group, refresh its stale
            // members, and pick the true winner by (string, idx). A group
            // reaching [`INTERN_TIE_THRESHOLD`] instead triggers the
            // one-time intern: every remaining candidate's rendering
            // becomes a dense rank in the heap key, the heap is rebuilt,
            // and every later round is a single pop (the all-ties worst
            // case that made per-round group popping quadratic).
            held.clear();
            let mut overflow = false;
            while let Some(top) = heap.peek() {
                if top.gain != best.gain || top.len != best.len {
                    break;
                }
                // `held` plus `best` plus the tying top about to be popped:
                // the confirmed group size has reached the threshold.
                if held.len() + 2 >= INTERN_TIE_THRESHOLD {
                    overflow = true;
                    break;
                }
                let next = heap.pop().expect("peeked entry present");
                let fi = next.idx as usize;
                let next = if next.epoch != epoch {
                    let gain = slots[fi]
                        .as_ref()
                        .expect("unselected candidate present")
                        .covered
                        .and_not_count(&covered);
                    if gain != next.gain {
                        // No longer tied (gain can only have dropped).
                        heap.push(GainEntry { gain, epoch, ..next });
                        continue;
                    }
                    GainEntry { epoch, ..next }
                } else {
                    next
                };
                fill(&mut strings, &slots, fi);
                fill(&mut strings, &slots, best.idx as usize);
                let wins = match strings[fi].cmp(&strings[best.idx as usize]) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => next.idx < best.idx,
                };
                if wins {
                    held.push(std::mem::replace(&mut best, next));
                } else {
                    held.push(next);
                }
            }
            if overflow {
                // Push the group back (its members are fresh for this
                // round), rank every remaining candidate, rebuild the heap
                // under (gain, len, rank, idx), and replay the round.
                heap.extend(held.drain(..));
                heap.push(best);
                let rank = intern_string_ranks(&slots);
                let mut entries = std::mem::take(&mut heap).into_vec();
                for e in &mut entries {
                    e.rank = rank[e.idx as usize];
                }
                heap = entries.into();
                interned = true;
                continue;
            }
            // The tied losers are fresh for this round; they go straight
            // back.
            heap.extend(held.drain(..));
        }

        let chosen = slots[best.idx as usize].take().expect("candidate selected twice");
        covered.union_with(&chosen.covered);
        let done = covered.is_full();
        selected.push(CoveredTransformation {
            covered_rows: chosen.covered.to_vec(),
            transformation: chosen.transformation,
        });
        if done {
            break;
        }
        epoch += 1;
    }

    Ok(TransformationSet {
        transformations: selected,
        total_pairs: total_rows,
    })
}

/// Renders every unselected candidate's transformation once and interns the
/// strings into dense lexicographic ranks: `rank[i] < rank[j]` iff
/// candidate `i`'s rendering sorts before `j`'s, with equal renderings
/// sharing a rank (so the heap's final `idx` leg decides between true
/// duplicates, exactly as the rescan oracle's first-in-input-order rule
/// does). Already-selected slots get an empty rendering; they have no live
/// heap entries, so their ranks are never consulted.
fn intern_string_ranks(slots: &[Option<ScoredTransformation>]) -> Vec<u32> {
    let rendered: Vec<String> = slots
        .iter()
        .map(|s| s.as_ref().map(|c| c.transformation.to_string()).unwrap_or_default())
        .collect();
    let len = u32::try_from(rendered.len()).expect("candidate count exceeds the u32 index space");
    let mut order: Vec<u32> = (0..len).collect();
    order.sort_unstable_by(|&a, &b| rendered[a as usize].cmp(&rendered[b as usize]));
    let mut rank = vec![0u32; rendered.len()];
    let mut current = 0u32;
    for (pos, &idx) in order.iter().enumerate() {
        if pos > 0 && rendered[idx as usize] != rendered[order[pos - 1] as usize] {
            current += 1;
        }
        rank[idx as usize] = current;
    }
    rank
}

pub mod reference {
    //! The quadratic full-rescan greedy loop the lazy-greedy heap replaced:
    //! every selection round re-evaluates the marginal gain of *every*
    //! remaining candidate. Retained verbatim as the differential-testing
    //! oracle (see `tests/proptest_selection.rs`) and as the baseline leg of
    //! the `selection` benchmark.

    use super::ScoredTransformation;
    use crate::bitmap::RowBitmap;
    use tjoin_units::{CoveredTransformation, TransformationSet};

    /// Greedy minimal set cover by full rescan — O(selected × candidates ×
    /// rows/64). Same contract and tie-breaking as
    /// [`super::lazy_greedy_cover`], which must match it bit for bit.
    pub fn greedy_cover_reference(
        candidates: Vec<ScoredTransformation>,
        total_rows: usize,
    ) -> TransformationSet {
        let mut covered = RowBitmap::new(total_rows);
        let mut selected: Vec<CoveredTransformation> = Vec::new();
        let mut remaining = candidates;

        loop {
            let mut best: Option<(usize, usize)> = None; // (marginal gain, index)
            for (idx, cand) in remaining.iter().enumerate() {
                let gain = cand.covered.and_not_count(&covered);
                if gain == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((best_gain, best_idx)) => {
                        let current_best = &remaining[best_idx];
                        gain > best_gain
                            || (gain == best_gain
                                && (cand.transformation.len()
                                    < current_best.transformation.len()
                                    || (cand.transformation.len()
                                        == current_best.transformation.len()
                                        && cand.transformation.to_string()
                                            < current_best.transformation.to_string())))
                    }
                };
                if better {
                    best = Some((gain, idx));
                }
            }
            let Some((_, idx)) = best else { break };
            let chosen = remaining.remove(idx);
            covered.union_with(&chosen.covered);
            let done = covered.is_full();
            selected.push(CoveredTransformation {
                covered_rows: chosen.covered.to_vec(),
                transformation: chosen.transformation,
            });
            if done {
                break;
            }
        }

        TransformationSet {
            transformations: selected,
            total_pairs: total_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_units::Unit;

    fn scored(units: Vec<Unit>, rows: Vec<u32>) -> ScoredTransformation {
        ScoredTransformation {
            transformation: Transformation::new(units),
            covered: RowBitmap::from_rows(64, &rows),
        }
    }

    fn scored_sized(units: Vec<Unit>, total: usize, rows: Vec<u32>) -> ScoredTransformation {
        ScoredTransformation {
            transformation: Transformation::new(units),
            covered: RowBitmap::from_rows(total, &rows),
        }
    }

    /// Runs both selection implementations and asserts bit-identity before
    /// returning the lazy-greedy result.
    fn cover_checked(
        candidates: Vec<ScoredTransformation>,
        total_rows: usize,
    ) -> TransformationSet {
        let lazy = lazy_greedy_cover(candidates.clone(), total_rows);
        let oracle = reference::greedy_cover_reference(candidates, total_rows);
        assert_selection_identical(&lazy, &oracle);
        lazy
    }

    fn assert_selection_identical(a: &TransformationSet, b: &TransformationSet) {
        assert_eq!(a.total_pairs, b.total_pairs);
        let render = |s: &TransformationSet| -> Vec<(String, Vec<u32>)> {
            s.transformations
                .iter()
                .map(|t| (t.transformation.to_string(), t.covered_rows.clone()))
                .collect()
        };
        assert_eq!(render(a), render(b), "selected sets diverged");
    }

    #[test]
    fn greedy_selects_by_marginal_gain() {
        // t0 covers {0,1,2}, t1 covers {2,3}, t2 covers {3}: the greedy cover
        // is {t0, t1} (t1 beats t2 on marginal gain after t0 is chosen —
        // both add row 3, but t1 also re-covers row 2; equal marginal gain of
        // 1, so the shorter/lexicographic rule applies).
        let t0 = scored_sized(vec![Unit::substr(0, 1)], 4, vec![0, 1, 2]);
        let t1 = scored_sized(vec![Unit::substr(0, 2)], 4, vec![2, 3]);
        let t2 = scored_sized(vec![Unit::substr(0, 3), Unit::literal("x")], 4, vec![3]);
        let cover = cover_checked(vec![t0, t1, t2], 4);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.transformations[0].covered_rows, vec![0, 1, 2]);
        assert!((cover.set_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_stops_when_no_gain() {
        let t0 = scored_sized(vec![Unit::substr(0, 1)], 3, vec![0]);
        let t1 = scored_sized(vec![Unit::substr(1, 2)], 3, vec![0]); // redundant
        let cover = cover_checked(vec![t0, t1], 3);
        assert_eq!(cover.len(), 1);
        assert!((cover.set_coverage() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_empty_candidates() {
        let cover = cover_checked(vec![], 5);
        assert!(cover.is_empty());
        assert_eq!(cover.total_pairs, 5);
        assert_eq!(cover.set_coverage(), 0.0);
    }

    #[test]
    fn greedy_zero_rows() {
        let cover = cover_checked(vec![], 0);
        assert!(cover.is_empty());
        assert_eq!(cover.set_coverage(), 0.0);
    }

    #[test]
    fn greedy_prefers_shorter_transformation_on_ties() {
        let long = scored_sized(vec![Unit::substr(0, 1), Unit::literal("a")], 2, vec![0, 1]);
        let short = scored_sized(vec![Unit::substr(0, 2)], 2, vec![0, 1]);
        let cover = cover_checked(vec![long, short], 2);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.transformations[0].transformation.len(), 1);
    }

    #[test]
    fn tie_break_order_pinned_on_all_equal_gain_pool() {
        // Adversarial pool for the heap ordering: four disjoint groups of
        // three candidates, every candidate covering exactly 2 rows, so
        // every selection round is an all-equal-gain tie. Within each group
        // the winner is decided purely by (fewer units, lexicographic,
        // input order); across groups the order is decided the same way.
        // Pinning the exact selected sequence means a change to the heap
        // ordering (or to the rank precomputation) cannot silently reorder
        // the output.
        let mut pool = Vec::new();
        for g in 0..4u32 {
            let rows = vec![2 * g, 2 * g + 1];
            // Same coverage, increasing unit counts and varying strings.
            pool.push(scored_sized(
                vec![Unit::substr(g as usize, g as usize + 2), Unit::literal("pad")],
                8,
                rows.clone(),
            ));
            pool.push(scored_sized(vec![Unit::split(',', g as usize)], 8, rows.clone()));
            pool.push(scored_sized(vec![Unit::substr(g as usize, g as usize + 1)], 8, rows));
        }
        // Duplicate one single-unit candidate exactly (same units, same
        // coverage): input order is the only discriminator left.
        pool.push(ScoredTransformation {
            transformation: pool[2].transformation.clone(),
            covered: pool[2].covered.clone(),
        });
        let cover = cover_checked(pool, 8);
        let rendered: Vec<String> = cover
            .transformations
            .iter()
            .map(|t| format!("{}@{:?}", t.transformation, t.covered_rows))
            .collect();
        // One winner per group. Groups all tie on gain=2, so the order
        // follows the tie-break alone: all winners are single-unit, and
        // `<Split…>` sorts lexicographically before `<Substr…>` — pin the
        // concrete sequence.
        let expected: Vec<String> = vec![
            "<Split(',',0)>@[0, 1]".into(),
            "<Split(',',1)>@[2, 3]".into(),
            "<Split(',',2)>@[4, 5]".into(),
            "<Split(',',3)>@[6, 7]".into(),
        ];
        assert_eq!(rendered, expected);
        assert_eq!(cover.len(), 4);
        assert!((cover.set_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_ties_worst_case_matches_reference() {
        // The pathological pool for pop-time tie resolution: every round is
        // an all-equal-gain, all-equal-length tie over the whole surviving
        // pool — 600 single-unit candidates covering disjoint row pairs
        // (comfortably above INTERN_TIE_THRESHOLD, so the giant group
        // triggers the one-time string-rank intern and the heap rebuild),
        // plus exact duplicates so the final input-order leg fires. After
        // the intern each round is one pop; the selected sequence must
        // still match the rescan oracle bit for bit.
        let groups = 600u32;
        let total = 2 * groups as usize;
        assert!(groups as usize > super::INTERN_TIE_THRESHOLD);
        let mut pool = Vec::new();
        for g in 0..groups {
            pool.push(scored_sized(
                vec![Unit::split(',', (g % 37) as usize)],
                total,
                vec![2 * g, 2 * g + 1],
            ));
        }
        // Exact duplicates of a middle candidate: same units, same rows.
        for _ in 0..3 {
            pool.push(ScoredTransformation {
                transformation: pool[64].transformation.clone(),
                covered: pool[64].covered.clone(),
            });
        }
        let cover = cover_checked(pool, total);
        // One winner per disjoint row group; duplicates add nothing.
        assert_eq!(cover.len(), groups as usize);
        assert!((cover.set_coverage() - 1.0).abs() < 1e-12);
        // Within an equal-gain round the lexicographically smallest
        // rendering wins: the very first selection is the smallest string
        // of the whole pool.
        let first = cover.transformations[0].transformation.to_string();
        assert!(pool_strings_sorted_first(&cover) == first);
        fn pool_strings_sorted_first(cover: &TransformationSet) -> String {
            let mut all: Vec<String> = cover
                .transformations
                .iter()
                .map(|t| t.transformation.to_string())
                .collect();
            all.sort();
            all[0].clone()
        }
    }

    #[test]
    fn tie_groups_straddling_intern_threshold_match_reference() {
        // All-ties pools whose group size lands just below, at, and just
        // above INTERN_TIE_THRESHOLD: both the pop-time and the interned
        // regime (and the handoff between them) must match the oracle.
        for groups in [
            super::INTERN_TIE_THRESHOLD - 2,
            super::INTERN_TIE_THRESHOLD - 1,
            super::INTERN_TIE_THRESHOLD,
            super::INTERN_TIE_THRESHOLD + 1,
        ] {
            let total = 2 * groups;
            let pool: Vec<ScoredTransformation> = (0..groups)
                .map(|g| {
                    scored_sized(
                        vec![Unit::split(',', g % 23)],
                        total,
                        vec![2 * g as u32, 2 * g as u32 + 1],
                    )
                })
                .collect();
            let cover = cover_checked(pool, total);
            assert_eq!(cover.len(), groups, "at group size {groups}");
            assert!((cover.set_coverage() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn interned_ranks_order_like_strings() {
        let pool = vec![
            scored(vec![Unit::substr(0, 2)], vec![0]),
            scored(vec![Unit::split(',', 0)], vec![1]),
            scored(vec![Unit::substr(0, 2)], vec![2]), // duplicate rendering
            scored(vec![Unit::literal("zz")], vec![3]),
        ];
        let strings: Vec<String> = pool.iter().map(|c| c.transformation.to_string()).collect();
        let slots: Vec<Option<ScoredTransformation>> = pool.into_iter().map(Some).collect();
        let ranks = super::intern_string_ranks(&slots);
        for i in 0..slots.len() {
            for j in 0..slots.len() {
                assert_eq!(
                    ranks[i].cmp(&ranks[j]),
                    strings[i].cmp(&strings[j]),
                    "ranks diverge from strings at ({i}, {j})"
                );
            }
        }
        assert_eq!(ranks[0], ranks[2]);
    }

    #[test]
    fn top_k_orders_by_coverage() {
        let a = scored(vec![Unit::substr(0, 1)], vec![0]);
        let b = scored(vec![Unit::substr(0, 2)], vec![0, 1, 2]);
        let c = scored(vec![Unit::substr(0, 3)], vec![0, 1]);
        let top = top_k(&[a, b, c], 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].coverage(), 3);
        assert_eq!(top[1].coverage(), 2);
    }

    #[test]
    fn top_k_handles_small_candidate_lists() {
        let a = scored(vec![Unit::substr(0, 1)], vec![0]);
        assert_eq!(top_k(&[a], 10).len(), 1);
        assert!(top_k(&[], 10).is_empty());
    }

    #[test]
    fn filter_by_support_and_literal_rule() {
        let lit_single = scored_sized(vec![Unit::literal("abc")], 10, vec![0]);
        let lit_double = scored_sized(vec![Unit::literal("abc")], 10, vec![0, 1]);
        let real = scored_sized(vec![Unit::substr(0, 1)], 10, vec![0]);
        let empty = scored_sized(vec![Unit::substr(5, 9)], 10, vec![]);
        let kept = filter_candidates(vec![lit_single, lit_double, real, empty], 10, 0.0);
        // The single-row all-literal and the empty-coverage candidates drop out.
        assert_eq!(kept.len(), 2);
        // A 20% support threshold over 10 rows requires 2 covered rows.
        let kept = filter_candidates(kept, 10, 0.2);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].covered.to_vec(), vec![0, 1]);
    }
}
