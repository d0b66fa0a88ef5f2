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
//! and [`lazy_greedy_cover_budgeted`] consumes its candidates by value, so
//! selected transformations are moved — not cloned — into the result set.
//!
//! # Lazy-greedy selection (CELF)
//!
//! The textbook greedy loop rescans every candidate per selection —
//! O(selected × candidates × rows/64) — which becomes the scaling wall once
//! candidate pools reach GXJoin scale (10^5–10^6).
//! [`lazy_greedy_cover_budgeted`] instead keeps every candidate's *last
//! known* marginal gain in a max-heap and, per round, re-evaluates only
//! entries popped from the top until the top entry's gain is confirmed
//! fresh for the current round.
//!
//! This is exact, not approximate, because marginal gain is **submodular**:
//! the covered set only grows between rounds, so a candidate's true gain can
//! only shrink, and every cached (stale) heap entry is an *upper bound* on
//! its candidate's true gain. When the popped top entry is fresh, its key is
//! ≥ every cached key ≥ every true key — it is the exact argmax the rescan
//! loop would have found, stale entries elsewhere in the heap
//! notwithstanding.
//!
//! The tie-break chain (equal gain → fewer units → lexicographic → first in
//! input order) never changes between rounds, so it is fixed once: the
//! candidates are sorted by (unit count, rendering, input index) before the
//! heap is built, and a candidate's position in that order is the whole
//! tie-break. The heap key is (gain, earlier position) and gain is its only
//! mutable part, so each round's winner is simply the first fresh pop.
//!
//! The selected set is bit-identical — same transformations, same order,
//! same covered rows — to the retained quadratic oracle in
//! [`reference::greedy_cover_reference`]; the differential suite in
//! `tests/proptest_selection.rs` pins this.

use crate::bitmap::RowBitmap;
use std::cmp::Reverse;
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

/// The engine's selection filter applies the support floor to the sparse
/// coverage lists before densification, together with the single-row
/// all-literal rule.
pub use tjoin_units::min_rows_for_support;

/// The `k` transformations with the largest coverage, ties broken toward
/// fewer units, then lexicographically, then by input order (stable sort).
/// Off the engine path, whose best transformation is
/// [`lazy_greedy_cover_budgeted`]'s first pick; kept as that identity's
/// oracle and for perfbench's trace.
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

/// Greedy minimal set cover via a lazy-greedy (CELF) priority queue:
/// repeatedly selects the transformation covering the most not-yet-covered
/// rows until no candidate adds coverage, re-evaluating only the candidates
/// that surface at the top of a cached-gain max-heap.
///
/// Ties are broken toward shorter transformations (fewer units — the paper's
/// second quality measure), then lexicographically, then toward the earlier
/// candidate in input order — exactly the rescan loop's order, so the result
/// is bit-identical to [`reference::greedy_cover_reference`] (see the module
/// docs for why stale heap entries cannot change the selection). The
/// returned set lists each selected transformation with *all* rows it covers
/// (not only the marginal ones), ordered by selection. Candidates are
/// consumed: the winners' transformations move into the result set.
///
/// An optional cooperative [`BudgetToken`](tjoin_text::BudgetToken) is
/// checked at the top of every heap pop (the selection loop's natural
/// boundary), and the whole selection returns `Err` — with no partial set —
/// once it trips. With `budget = None` the selection cannot abort.
pub fn lazy_greedy_cover_budgeted(
    mut candidates: Vec<ScoredTransformation>,
    total_rows: usize,
    budget: Option<&tjoin_text::BudgetToken>,
) -> Result<TransformationSet, tjoin_text::BudgetExceeded> {
    // The stable sort keeps input order among equal (len, rendering) keys,
    // so a candidate's position is its rank in the full tie-break chain.
    candidates.sort_by_cached_key(|c| (c.transformation.len(), c.transformation.to_string()));

    // Seed the heap with every candidate's full coverage: against the empty
    // covered set the marginal gain IS the coverage, so every entry starts
    // fresh for round 0. An entry is (gain, earlier position, round); the
    // round takes no part in the order, since (gain, position) is unique.
    let mut heap: BinaryHeap<(usize, Reverse<usize>, usize)> = candidates
        .iter()
        .enumerate()
        .map(|(pos, c)| (c.covered.count_ones(), Reverse(pos), 0))
        .collect();
    let mut slots: Vec<Option<ScoredTransformation>> =
        candidates.into_iter().map(Some).collect();

    let mut covered = RowBitmap::new(total_rows);
    let mut selected: Vec<CoveredTransformation> = Vec::new();
    let mut round = 0;

    while let Some((gain, Reverse(pos), fresh_in)) = heap.pop() {
        if let Some(token) = budget {
            token.check()?;
        }
        // Cached gains are upper bounds (submodularity), so a zero at the
        // top means every remaining candidate's true gain is zero.
        if gain == 0 {
            break;
        }
        if fresh_in != round {
            // Stale: refresh against the current covered set and reinsert.
            let candidate = slots[pos].as_ref().expect("unselected candidate present");
            heap.push((candidate.covered.and_not_count(&covered), Reverse(pos), round));
            continue;
        }
        // Fresh top: the exact argmax under the full tie-break order.
        let chosen = slots[pos].take().expect("candidate selected twice");
        covered.union_with(&chosen.covered);
        let done = covered.is_full();
        selected.push(CoveredTransformation {
            covered_rows: chosen.covered.to_vec(),
            transformation: chosen.transformation,
        });
        if done {
            break;
        }
        round += 1;
    }

    Ok(TransformationSet {
        transformations: selected,
        total_pairs: total_rows,
    })
}

pub mod reference {
    //! The quadratic full-rescan greedy loop the lazy-greedy heap replaced:
    //! every selection round re-evaluates the marginal gain of *every*
    //! remaining candidate. Retained verbatim as the differential-testing
    //! oracle (see `tests/proptest_selection.rs`).

    use super::ScoredTransformation;
    use crate::bitmap::RowBitmap;
    use tjoin_units::{CoveredTransformation, TransformationSet};

    /// Greedy minimal set cover by full rescan — O(selected × candidates ×
    /// rows/64). Same contract and tie-breaking as
    /// [`super::lazy_greedy_cover_budgeted`], which must match it bit for bit.
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
        let lazy = lazy_greedy_cover_budgeted(candidates.clone(), total_rows, None)
            .expect("no budget");
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
        // Every round is an all-equal-gain, all-equal-length tie over the
        // whole surviving pool — 600 single-unit candidates covering
        // disjoint row pairs, whose renderings repeat every 37 — plus exact
        // duplicates so the final input-order leg fires. The selected
        // sequence must match the rescan oracle bit for bit.
        let groups = 600u32;
        let total = 2 * groups as usize;
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
        // rendering wins, the earliest in input order among equals: the
        // first selection is `Split(',',0)` on the first group's rows.
        assert_eq!(cover.transformations[0].transformation.to_string(), "<Split(',',0)>");
        assert_eq!(cover.transformations[0].covered_rows, vec![0, 1]);
    }

    #[test]
    fn all_tie_pools_of_many_sizes_match_reference() {
        // All-ties pools from one candidate to a few hundred: at every
        // size the selected sequence follows the tie-break alone.
        for groups in [1usize, 2, 3, 63, 64, 65, 254, 255, 256, 257] {
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
}
